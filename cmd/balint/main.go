// Command balint runs the repo's analyzer suite — the seven checks that
// enforce the determinism, lean-tier, registry, telemetry-side-channel
// and sentinel-classification contracts — over the whole module and
// exits non-zero on any unsuppressed diagnostic.
//
// Usage:
//
//	balint [-list] [-v] [-json] [dir]
//
// dir is the module root (default "."). Unlike a `go vet -vettool`
// pass, balint loads the entire module into one type universe: the
// maporder and leantier contracts are whole-program reachability
// properties, and the obstaint dataflow runs on the same shared
// callgraph — none of which the per-package unitchecker protocol can
// see. scripts/lint.sh runs balint alongside plain `go vet`.
//
// With -json, stdout carries exactly one JSON array of findings
// (suppressed ones included and marked, deterministically ordered) and
// nothing else; all human-oriented output moves to stderr, so the
// artifact pipes into jq or an upload step unfiltered. The exit code
// still reflects only unsuppressed findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"expensive/internal/analysis/balint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main with the process edges cut off: flags in, exit code out,
// streams via os.Stdout/os.Stderr so tests can capture them.
func run(args []string) int {
	fs := flag.NewFlagSet("balint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	list := fs.Bool("list", false, "print the registered analyzers and exit")
	verbose := fs.Bool("v", false, "also print suppressed diagnostics with their reasons")
	jsonOut := fs.Bool("json", false, "write the findings (suppressed included) as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: balint [-list] [-v] [-json] [dir]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range balint.Suite() {
			fmt.Printf("%-12s %s\n", a.Name, a.Summary())
		}
		return 0
	}

	dir := "."
	if fs.NArg() > 0 {
		dir = fs.Arg(0)
	}
	diags, err := balint.LintModule(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "balint:", err)
		return 2
	}

	failing, err := balint.Report(os.Stdout, os.Stderr, diags, *jsonOut, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "balint:", err)
		return 2
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "balint: %d unsuppressed diagnostic(s)\n", failing)
		return 1
	}
	return 0
}
