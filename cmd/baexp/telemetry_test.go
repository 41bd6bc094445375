package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// captureRun executes run(args) with stdout and stderr redirected to
// pipes, so tests can assert which stream every byte landed on.
func captureRun(t *testing.T, args []string) (stdout, stderr []byte, err error) {
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
	err = run(args)
	wo.Close()
	we.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	return <-outCh, <-errCh, err
}

// TestTelemetryKeepsJSONStdoutClean is the CLI half of the flight-recorder
// contract: under `-json -progress -metrics-out -pprof` the report on
// stdout is byte-identical to a bare telemetry-off run (so piping into jq
// or cmp always works), every human-oriented line lands on stderr, and the
// metrics file is valid JSONL carrying both trace events and the snapshot.
func TestTelemetryKeepsJSONStdoutClean(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.jsonl")
	base := []string{"hunt", "-proto", "floodset", "-seeds", "0:32", "-json"}

	plain, plainErr, err := captureRun(t, append([]string{}, append(base, "-parallel", "1")...))
	if err != nil {
		t.Fatal(err)
	}
	if len(plainErr) != 0 {
		t.Errorf("telemetry-off run wrote to stderr: %q", plainErr)
	}

	loud, loudErr, err := captureRun(t, append([]string{}, append(base,
		"-parallel", "4", "-progress", "-metrics-out", metrics, "-pprof", "127.0.0.1:0")...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, loud) {
		t.Error("telemetry flags changed the stdout report bytes")
	}
	var report map[string]any
	if uerr := json.Unmarshal(loud, &report); uerr != nil {
		t.Fatalf("stdout is not one clean JSON document: %v", uerr)
	}
	for _, want := range []string{"probes/s", "telemetry summary", "campaign_probes", "pprof: serving"} {
		if !bytes.Contains(loudErr, []byte(want)) {
			t.Errorf("stderr missing %q:\n%s", want, loudErr)
		}
	}

	f, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	var all bytes.Buffer
	for sc.Scan() {
		lines++
		var doc map[string]any
		if uerr := json.Unmarshal(sc.Bytes(), &doc); uerr != nil {
			t.Fatalf("metrics line %d is not JSON: %v", lines, uerr)
		}
		all.Write(sc.Bytes())
		all.WriteByte('\n')
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if lines == 0 {
		t.Fatal("-metrics-out file is empty")
	}
	for _, want := range []string{
		`"name":"campaign-start"`, `"name":"violation-found"`, `"name":"campaign-end"`,
		`"type":"counter","name":"campaign_probes","value":32`,
		`"type":"histogram","name":"campaign_probe_ns"`,
	} {
		if !bytes.Contains(all.Bytes(), []byte(want)) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
}

// TestLintJSONStdoutClean extends the clean-stdout contract to `lint
// -json`: the findings array (suppressed findings included) is the only
// stdout content, and -v chatter lands on stderr.
func TestLintJSONStdoutClean(t *testing.T) {
	stdout, stderr, err := captureRun(t, []string{"lint", "-json", "-v", "-dir", "../.."})
	if err != nil {
		t.Fatal(err)
	}
	var findings []map[string]any
	if uerr := json.Unmarshal(stdout, &findings); uerr != nil {
		t.Fatalf("lint -json stdout is not one clean JSON document: %v\n%s", uerr, stdout)
	}
	if len(findings) == 0 {
		t.Error("findings array is empty; the module's suppressed findings should be recorded")
	}
	for _, f := range findings {
		if sup, _ := f["suppressed"].(bool); !sup {
			t.Errorf("unsuppressed finding in a clean tree: %v", f)
		}
	}
	if !bytes.Contains(stderr, []byte("suppressed (")) {
		t.Errorf("-v chatter missing from stderr:\n%s", stderr)
	}
}

// TestUsageOnErrorStaysOffStdout pins the stream split for diagnostics:
// an unknown subcommand prints usage on stderr only.
func TestUsageOnErrorStaysOffStdout(t *testing.T) {
	stdout, stderr, err := captureRun(t, []string{"bogus"})
	if err == nil {
		t.Fatal("expected an unknown-subcommand error")
	}
	if len(stdout) != 0 {
		t.Errorf("error-path usage leaked onto stdout: %q", stdout)
	}
	if !bytes.Contains(stderr, []byte("subcommands:")) {
		t.Errorf("stderr carries no usage text:\n%s", stderr)
	}
}

// TestFuzzCorpusSaveEvent pins the corpus-save trace event: a fuzz run
// with -corpus and -metrics-out records where the corpus went.
func TestFuzzCorpusSaveEvent(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.jsonl")
	corpus := filepath.Join(dir, "corpus.json")
	_, _, err := captureRun(t, []string{"fuzz", "-n", "4", "-t", "3", "-budget", "96",
		"-shrink=false", "-corpus", corpus, "-metrics-out", metrics})
	if err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"corpus-save"`, `"name":"fuzz-end"`} {
		if !bytes.Contains(dump, []byte(want)) {
			t.Errorf("fuzz metrics dump missing %s", want)
		}
	}
}
