// Package balint assembles the repo's analyzer suite: maporder,
// wallclock, globalrand, leantier and regcheck enforce the determinism,
// lean-tier and registry contracts; obstaint and errcmp — the dataflow
// tier built on the taint engine and the shared callgraph — enforce the
// telemetry side-channel and sentinel-classification contracts of the
// concurrent subsystems. (The goroutine-shutdown contract is checked at
// run time, by internal/leakcheck.) All seven are documented in the
// README's "Static analysis" section. cmd/balint and `baexp lint` are
// thin frontends over this package.
package balint

import (
	"encoding/json"
	"fmt"
	"io"

	"expensive/internal/analysis"
	"expensive/internal/analysis/errcmp"
	"expensive/internal/analysis/globalrand"
	"expensive/internal/analysis/leantier"
	"expensive/internal/analysis/maporder"
	"expensive/internal/analysis/obstaint"
	"expensive/internal/analysis/regcheck"
	"expensive/internal/analysis/wallclock"
)

// Suite returns the full analyzer suite, in the order findings are
// attributed in listings.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		wallclock.Analyzer,
		globalrand.Analyzer,
		leantier.Analyzer,
		regcheck.Analyzer,
		obstaint.Analyzer,
		errcmp.Analyzer,
	}
}

// Names returns the suite's analyzer names, the set //balint:allow
// directives may reference.
func Names() []string {
	var out []string
	for _, a := range Suite() {
		out = append(out, a.Name)
	}
	return out
}

// LintModule loads the module rooted at dir and runs the whole suite,
// returning every diagnostic (suppressed ones marked) in position order.
func LintModule(dir string) ([]analysis.Diagnostic, error) {
	prog, err := analysis.LoadModule(dir)
	if err != nil {
		return nil, err
	}
	return analysis.Run(prog, Suite(), Names())
}

// Finding is the machine-readable form of one diagnostic, the element
// type of `balint -json` output and the CI findings artifact.
type Finding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

// Findings converts diagnostics to their machine-readable form,
// preserving the deterministic position order analysis.Run returns.
func Findings(diags []analysis.Diagnostic) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, Finding{
			File:       d.Pos.Filename,
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
			Reason:     d.Reason,
		})
	}
	return out
}

// EncodeJSON writes every diagnostic — suppressed ones marked, so the
// artifact records the allow decisions too — as one JSON array followed
// by a newline. The array is never null: a clean tree encodes as [],
// keeping downstream jq pipelines unconditional.
func EncodeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	enc := json.NewEncoder(w)
	return enc.Encode(Findings(diags))
}

// Report is the output both lint front ends share. Unsuppressed findings
// go to stdout one per line, or — with jsonOut — every finding goes there
// as the EncodeJSON document and nothing else does; verbose adds the
// suppressed findings with their reasons, on stdout in text mode and on
// stderr under jsonOut. It returns the number of unsuppressed findings,
// which is what the caller's exit status is made of.
func Report(stdout, stderr io.Writer, diags []analysis.Diagnostic, jsonOut, verbose bool) (unsuppressed int, err error) {
	failing := analysis.Unsuppressed(diags)
	chatter := stdout
	if jsonOut {
		chatter = stderr
		if err := EncodeJSON(stdout, diags); err != nil {
			return 0, err
		}
	} else {
		for _, d := range failing {
			fmt.Fprintln(stdout, d)
		}
	}
	if verbose {
		for _, d := range diags {
			if d.Suppressed {
				fmt.Fprintf(chatter, "%s: %s: suppressed (%s)\n", d.Pos, d.Analyzer, d.Reason)
			}
		}
	}
	return len(failing), nil
}
