package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"

	"expensive/internal/analysis/balint"
)

// captureRun executes run(args) with stdout and stderr redirected to
// pipes, so tests can assert which stream every byte landed on.
func captureRun(t *testing.T, args []string) (stdout, stderr []byte, code int) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	ro, wo, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	re, we, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	os.Stdout, os.Stderr = wo, we
	outCh := make(chan []byte)
	errCh := make(chan []byte)
	go func() { b, _ := io.ReadAll(ro); outCh <- b }()
	go func() { b, _ := io.ReadAll(re); errCh <- b }()
	code = run(args)
	wo.Close()
	we.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	return <-outCh, <-errCh, code
}

// TestJSONStdoutPurity is the balint half of the clean-stdout contract:
// under -json the findings array is the only stdout content, -v chatter
// moves to stderr without changing a stdout byte, the document parses as
// one JSON array in deterministic order, and the known suppressed
// findings of the dataflow tier are recorded in it.
func TestJSONStdoutPurity(t *testing.T) {
	plain, plainErr, code := captureRun(t, []string{"-json", "../.."})
	if code != 0 {
		t.Fatalf("clean module lint exited %d, stderr:\n%s", code, plainErr)
	}
	if len(plainErr) != 0 {
		t.Errorf("bare -json run wrote to stderr: %q", plainErr)
	}

	loud, loudErr, code := captureRun(t, []string{"-json", "-v", "../.."})
	if code != 0 {
		t.Fatalf("verbose lint exited %d", code)
	}
	if !bytes.Equal(plain, loud) {
		t.Error("-v changed the stdout findings bytes")
	}
	if !bytes.Contains(loudErr, []byte("suppressed (")) {
		t.Errorf("-v chatter missing from stderr:\n%s", loudErr)
	}

	var findings []balint.Finding
	if err := json.Unmarshal(plain, &findings); err != nil {
		t.Fatalf("stdout is not one clean JSON document: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("findings array is empty; the module's suppressed findings should be recorded")
	}
	byAnalyzer := map[string]int{}
	for i, f := range findings {
		if !f.Suppressed {
			t.Errorf("unsuppressed finding leaked into a clean run: %+v", f)
		}
		if f.Suppressed && f.Reason == "" {
			t.Errorf("finding %d suppressed without a reason", i)
		}
		byAnalyzer[f.Analyzer]++
		if i > 0 {
			prev := findings[i-1]
			if f.File < prev.File || (f.File == prev.File && (f.Line < prev.Line || (f.Line == prev.Line && f.Col < prev.Col))) {
				t.Errorf("findings out of position order at %d: %+v after %+v", i, f, prev)
			}
		}
	}
	if byAnalyzer["obstaint"] == 0 {
		t.Error("findings artifact records no obstaint suppression; the known sanctioned site is missing")
	}
}

// TestListStaysHumanReadable pins -list output: one line per analyzer,
// dataflow tier included.
func TestListStaysHumanReadable(t *testing.T) {
	stdout, _, code := captureRun(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"maporder", "wallclock", "globalrand", "leantier", "regcheck", "obstaint", "errcmp"} {
		if !bytes.Contains(stdout, []byte(name)) {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
}
