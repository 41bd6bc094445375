package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"expensive/internal/adversary"
)

func TestRunSubcommands(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"usage", nil},
		{"help", []string{"help"}},
		{"experiment E7", []string{"exp", "E7"}},
		{"experiment lowercase", []string{"exp", "e4"}},
		{"experiment json", []string{"exp", "-json", "E7"}},
		{"experiment serial", []string{"exp", "-parallel", "1", "E4"}},
		{"experiment parallel", []string{"exp", "-parallel", "4", "E9"}},
		{"experiment list", []string{"exp", "-list"}},
		{"hunt floodset", []string{"hunt", "-proto", "floodset", "-seeds", "0:16", "-parallel", "1"}},
		{"hunt json", []string{"hunt", "-proto", "floodset", "-seeds", "0:8", "-json"}},
		{"hunt verbose", []string{"hunt", "-proto", "floodset", "-seeds", "0:8", "-v"}},
		{"hunt parallel", []string{"hunt", "-proto", "floodset", "-seeds", "0:16", "-parallel", "4"}},
		{"hunt sound protocol", []string{"hunt", "-proto", "phase-king", "-n", "5", "-t", "1", "-strategy", "chaos", "-seeds", "0:10"}},
		{"hunt storm", []string{"hunt", "-proto", "weak-ic", "-n", "5", "-t", "1", "-strategy", "storm", "-seeds", "0:6"}},
		{"hunt no shrink", []string{"hunt", "-proto", "floodset", "-seeds", "0:8", "-shrink=false"}},
		{"hunt list", []string{"hunt", "-list"}},
		{"hunt gradecast", []string{"hunt", "-proto", "gradecast", "-strategy", "two-faced", "-n", "5", "-t", "1", "-seeds", "0:8"}},
		{"hunt derived", []string{"hunt", "-proto", "derived-weak", "-n", "4", "-t", "1", "-strategy", "chaos", "-seeds", "0:6"}},
		{"fuzz floodset", []string{"fuzz", "-n", "4", "-t", "3", "-budget", "192", "-shrink=false"}},
		{"fuzz json", []string{"fuzz", "-n", "4", "-t", "3", "-budget", "128", "-json", "-shrink=false"}},
		{"fuzz parallel", []string{"fuzz", "-n", "4", "-t", "3", "-budget", "128", "-parallel", "4", "-shrink=false"}},
		{"fuzz sound protocol", []string{"fuzz", "-proto", "phase-king", "-n", "5", "-t", "1", "-strategy", "chaos", "-budget", "96", "-shrink=false"}},
		{"fuzz list", []string{"fuzz", "-list"}},
		{"matrix small", []string{"matrix", "-proto", "floodset", "-sizes", "5:1", "-seeds", "0:4"}},
		{"matrix json", []string{"matrix", "-proto", "floodset,phase-king", "-strategy", "targeted-withhold,chaos", "-sizes", "4:1,5:1", "-seeds", "0:4", "-json"}},
		{"matrix parallel", []string{"matrix", "-proto", "floodset,gradecast", "-sizes", "5:1", "-seeds", "0:4", "-parallel", "4"}},
		{"matrix shrink", []string{"matrix", "-proto", "floodset", "-strategy", "targeted-withhold", "-sizes", "5:1", "-seeds", "0:8", "-shrink"}},
		{"matrix list", []string{"matrix", "-list"}},
		{"falsify parallel", []string{"falsify", "-proto", "star", "-n", "24", "-t", "8", "-parallel", "4"}},
		{"falsify progress", []string{"falsify", "-proto", "silent", "-n", "24", "-t", "8", "-progress"}},
		{"experiment progress", []string{"exp", "-parallel", "1", "-progress", "E7"}},
		{"hunt pprof", []string{"hunt", "-proto", "floodset", "-seeds", "0:8", "-pprof", "127.0.0.1:0"}},
		{"falsify leader", []string{"falsify", "-proto", "leader", "-n", "24", "-t", "8"}},
		{"falsify verbose", []string{"falsify", "-proto", "silent", "-n", "24", "-t", "8", "-v"}},
		{"falsify catalog ID", []string{"falsify", "-proto", "dolev-strong", "-n", "9", "-t", "8"}},
		{"solve strong frontier", []string{"solve", "-problem", "strong", "-n", "5", "-t", "2"}},
		{"solve unsolvable", []string{"solve", "-problem", "strong", "-n", "4", "-t", "2"}},
		{"solve unauth", []string{"solve", "-problem", "weak", "-n", "4", "-t", "1", "-auth=false"}},
		// The dist soak kinds fork worker processes of the real binary, so
		// they are exercised by the CI soak-smoke step; the smr kind runs
		// fully in-process and smokes here.
		{"soak smr clean", []string{"soak", "-kind", "smr", "-n", "5", "-t", "1", "-duration", "300ms"}},
		{"soak smr defaults", []string{"soak", "-kind", "smr", "-duration", "300ms"}},
		{"soak smr storm", []string{"soak", "-kind", "smr", "-n", "5", "-t", "1", "-chaos", "storm", "-chaos-seed", "33", "-duration", "300ms"}},
		{"run mem", []string{"run", "-proto", "phase-king", "-n", "5", "-t", "1"}},
		{"run tcp", []string{"run", "-proto", "weak-eig", "-n", "4", "-t", "1", "-transport", "tcp"}},
		{"run decoded", []string{"run", "-proto", "ic", "-n", "4", "-t", "1"}},
		{"run explicit proposals", []string{"run", "-proto", "phase-king", "-n", "5", "-t", "1", "-propose", "0,0,0,0,0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown subcommand", []string{"bogus"}, "unknown subcommand"},
		{"unknown experiment", []string{"exp", "E99"}, "unknown experiment"},
		{"unknown protocol", []string{"falsify", "-proto", "nope"}, "unknown protocol"},
		{"falsify lists catalog IDs", []string{"falsify", "-proto", "nope"}, "dolev-strong"},
		{"falsify trivial lift", []string{"falsify", "-proto", "external", "-n", "9", "-t", "8"}, "both decide"},
		{"hunt unknown protocol", []string{"hunt", "-proto", "nope"}, "unknown protocol"},
		{"hunt unknown strategy", []string{"hunt", "-strategy", "nope"}, "unknown strategy"},
		{"hunt bad seed range", []string{"hunt", "-seeds", "junk"}, "seed range"},
		{"hunt empty seed range", []string{"hunt", "-seeds", "5:5"}, "empty"},
		{"hunt overflowing seed range", []string{"hunt", "-seeds", "0:9223372036854775807"}, "exceeds"},
		{"fuzz unknown protocol", []string{"fuzz", "-proto", "nope"}, "unknown protocol"},
		{"fuzz unknown strategy", []string{"fuzz", "-strategy", "nope"}, "unknown strategy"},
		{"fuzz bad budget", []string{"fuzz", "-n", "4", "-t", "3", "-budget", "0"}, "budget"},
		{"fuzz bad bias", []string{"fuzz", "-bias", "120"}, "bias"},
		{"fuzz resilience", []string{"fuzz", "-proto", "phase-king", "-n", "4", "-t", "1"}, "n > 4t"},
		{"fuzz unreadable corpus", []string{"fuzz", "-n", "4", "-t", "3", "-budget", "32", "-corpus", "main.go"}, "corpus"},
		{"hunt resilience", []string{"hunt", "-proto", "phase-king", "-n", "4", "-t", "1"}, "n > 4t"},
		{"matrix unknown protocol", []string{"matrix", "-proto", "nope"}, "unknown protocol"},
		{"matrix unknown strategy", []string{"matrix", "-strategy", "nope"}, "unknown strategy"},
		{"matrix bad sizes", []string{"matrix", "-sizes", "junk"}, "N:T"},
		{"matrix bad size values", []string{"matrix", "-sizes", "3:0"}, "1 <= t < n"},
		{"matrix empty seeds", []string{"matrix", "-seeds", "4:4"}, "empty"},
		{"unknown problem", []string{"solve", "-problem", "nope"}, "unknown problem"},
		{"phase-king resilience", []string{"run", "-proto", "phase-king", "-n", "4", "-t", "1"}, "n > 4t"},
		{"proposal count", []string{"run", "-proto", "phase-king", "-n", "5", "-t", "1", "-propose", "0,1"}, "proposals"},
		{"unknown transport", []string{"run", "-transport", "carrier-pigeon"}, "transport"},
		{"falsify t too small", []string{"falsify", "-proto", "leader", "-n", "10", "-t", "2"}, "t"},
		{"soak unknown kind", []string{"soak", "-kind", "bogus"}, "unknown campaign kind"},
		{"soak unknown chaos", []string{"soak", "-chaos", "bogus"}, "unknown chaos profile"},
		{"soak bad churn", []string{"soak", "-churn", "junk"}, "churn"},
		{"soak smr resilience", []string{"soak", "-kind", "smr", "-n", "4", "-t", "1"}, "n > 4t"},
		{"soak no workers", []string{"soak", "-workers", "0"}, "worker"},
		// A job no engine accepts is refused before the coordinator listens;
		// it used to reach the workers, kill them, and wait for more forever
		// (go test's deadline is what fails a regression here).
		{"coord resilience", []string{"coord", "-kind", "hunt", "-proto", "phase-king", "-n", "4", "-t", "1", "-inproc", "1"}, "n > 4t"},
		{"soak resilience", []string{"soak", "-kind", "fuzz", "-proto", "phase-king", "-n", "4", "-t", "1", "-duration", "5s"}, "n > 4t"},
		{"worker unknown chaos", []string{"worker", "-coord", "127.0.0.1:1", "-chaos", "bogus"}, "unknown chaos profile"},
		// Chaos the soaked link cannot inject used to run clean and still
		// print SOAK PASS "under churn + chaos".
		{"soak wire corrupt", []string{"soak", "-chaos", "corrupt", "-duration", "5s"}, `profile "corrupt" uses corrupt`},
		{"soak wire dup-reorder", []string{"soak", "-kind", "fuzz", "-chaos", "dup-reorder", "-duration", "5s"}, `profile "dup-reorder" uses duplicate`},
		{"soak smr cut", []string{"soak", "-kind", "smr", "-chaos", "cut", "-duration", "5s"}, `profile "cut" uses cut`},
		{"worker wire corrupt", []string{"worker", "-coord", "127.0.0.1:1", "-chaos", "corrupt"}, `profile "corrupt" uses corrupt`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v): expected error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseSeedRange covers the FROM:TO parser, including the overflow
// regression: ranges whose width used to wrap Count() negative must be
// rejected, not passed through to panic the worker pool.
func TestParseSeedRange(t *testing.T) {
	cases := []struct {
		in      string
		want    adversary.SeedRange
		wantErr string
	}{
		{in: "0:64", want: adversary.SeedRange{From: 0, To: 64}},
		{in: "-8:8", want: adversary.SeedRange{From: -8, To: 8}},
		{in: "junk", wantErr: "not FROM:TO"},
		{in: "5", wantErr: "not FROM:TO"},
		{in: "a:b", wantErr: "not FROM:TO"},
		{in: "1:2:3", wantErr: "not FROM:TO"},
		{in: "", wantErr: "not FROM:TO"},
		{in: "5:5", wantErr: "empty"},
		{in: "9:3", wantErr: "empty"},
		{in: "0:9223372036854775807", wantErr: "exceeds"},
		{in: "-9223372036854775808:9223372036854775807", wantErr: "exceeds"},
		{in: "99999999999999999999:0", wantErr: "not FROM:TO"}, // From overflows int64
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			got, err := parseSeedRange(tc.in)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseSeedRange(%q) = %+v, expected error", tc.in, got)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("parseSeedRange(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
			if got.Count() <= 0 || got.Count() > adversary.MaxSeeds {
				t.Errorf("accepted range has out-of-bounds count %d", got.Count())
			}
		})
	}
}

// TestParseSizes covers the N:T grid-point list parser.
func TestParseSizes(t *testing.T) {
	got, err := parseSizes("4:1, 5:1,8:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].N != 4 || got[0].T != 1 || got[1].N != 5 || got[2].T != 2 {
		t.Errorf("parseSizes = %+v", got)
	}
	for _, in := range []string{"junk", "4", "4:x", "x:1", ""} {
		if _, err := parseSizes(in); err == nil {
			t.Errorf("parseSizes(%q): expected error", in)
		}
	}
}

// TestProblemByName covers the solve-subcommand problem table.
func TestProblemByName(t *testing.T) {
	for _, name := range []string{"weak", "strong", "broadcast", "correct-source", "interactive", "constant"} {
		p, err := problemByName(name, 5, 2)
		if err != nil {
			t.Fatalf("problemByName(%q): %v", name, err)
		}
		if p.Name == "" {
			t.Errorf("problemByName(%q) returned an unnamed problem", name)
		}
	}
	if _, err := problemByName("nope", 5, 2); err == nil {
		t.Error("problemByName(nope): expected error")
	}
}

// TestCoordDefaultsMatchSingleProcess: `baexp K` and `coord -kind K` fill
// every flag the command line leaves unset from one per-kind table, so
// with no shape flag beyond a small budget they print the same bytes
// (they used to disagree on n, t, seeds, -keep and -shrink), and `K -h`
// names the kind's defaults.
func TestCoordDefaultsMatchSingleProcess(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		small []string
		help  []string
	}{
		{"hunt", []string{"-seeds", "0:16"}, []string{"(default 8)", `(default "targeted-withhold")`, "(default true)"}},
		{"fuzz", []string{"-budget", "256", "-shrink=false"}, []string{"(default 4)", `(default "random-send-omission")`}},
		{"matrix", []string{"-proto", "floodset", "-sizes", "4:1"}, []string{`(default "0:16")`, "(default 1)"}},
	} {
		local, _, err := captureRun(t, append([]string{tc.kind, "-json"}, tc.small...))
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		coord, _, err := captureRun(t, append([]string{"coord", "-kind", tc.kind, "-inproc", "1", "-json"}, tc.small...))
		if err != nil {
			t.Fatalf("coord -kind %s: %v", tc.kind, err)
		}
		if len(local) == 0 || !bytes.Equal(local, coord) {
			t.Errorf("%s %v: `baexp %s` and `baexp coord -kind %s` print different reports\nlocal: %s\ncoord: %s",
				tc.kind, tc.small, tc.kind, tc.kind, local, coord)
		}
		_, usage, err := captureRun(t, []string{tc.kind, "-h"})
		if !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: %v", tc.kind, err)
		}
		for _, want := range tc.help {
			if !bytes.Contains(usage, []byte(want)) {
				t.Errorf("%s -h does not name the default %s:\n%s", tc.kind, want, usage)
			}
		}
	}
}

// TestFuzzCorpusFlagRoundTrip pins the -corpus path: a first run writes
// the corpus, a second run resumes from it.
func TestFuzzCorpusFlagRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.json")
	args := []string{"fuzz", "-n", "4", "-t", "3", "-budget", "96", "-shrink=false", "-corpus", path}
	if err := run(args); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(args); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
}

// TestSeedRangeNoPanic replays the original crash shape end to end: a
// huge range must surface as an error from the hunt path, never as a
// panic out of runner.Map.
func TestSeedRangeNoPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("huge seed range panicked: %v", r)
		}
	}()
	err := run([]string{"hunt", "-proto", "floodset", "-seeds", "-4611686018427387904:4611686018427387904"})
	if err == nil {
		t.Fatal("expected an error for a 2^63-wide seed range")
	}
}

// TestGoldenText pins the text rendering of the four campaign routes the
// way the root golden_test.go pins the JSON: `-json` output is compared
// between routes by the CI smokes, but nothing else holds the text. The
// one line that states facts of the machine and the schedule is dropped
// before the comparison: the wall-clock line, which for coord also counts
// the workers that had joined before the hunt was over. If a test here
// fails because the rendering was changed on purpose, replace the
// file with the bytes the failure prints.
func TestGoldenText(t *testing.T) {
	const hunt = "-proto floodset -n 8 -t 2 -strategy targeted-withhold -seeds 0:48 -shrink"
	for _, tc := range []struct{ file, cmd string }{
		{"hunt-shrink-v.txt", "hunt " + hunt + " -v"},
		{"fuzz-shrink-stop.txt", "fuzz -proto floodset -n 4 -t 3 -budget 2048 -shrink -stop"},
		{"matrix-floodset-4-1.txt", "matrix -proto floodset -sizes 4:1"},
		{"coord-hunt-shrink-inproc2.txt", "coord -kind hunt " + hunt + " -inproc 2"},
	} {
		stdout, _, err := captureRun(t, strings.Fields(tc.cmd))
		if err != nil {
			t.Fatalf("baexp %s: %v", tc.cmd, err)
		}
		var got []byte
		for _, line := range bytes.SplitAfter(stdout, []byte("\n")) {
			if !bytes.Contains(line, []byte(" ms wall")) {
				got = append(got, line...)
			}
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatalf("%v\ncontent for a deliberate pin:\n%s", err, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("baexp %s no longer prints testdata/%s. Got:\n%s", tc.cmd, tc.file, got)
		}
	}
}

// TestDeterminismSmokes is the determinism contract at the command line,
// the `cmp` steps CI ran against the built binary: each row is two
// commands whose stdout — and the corpus file, where the command names one
// as CORPUS — must be byte-equal, at any parallelism, with telemetry on or
// off, and through the coordinator or not. scrub removes what states facts
// of the machine; want are patterns the common output must show, so that
// two empty reports do not pass.
func TestDeterminismSmokes(t *testing.T) {
	const (
		hunt   = "-proto floodset -n 8 -t 2 -strategy targeted-withhold -seeds 0:48 -json"
		fuzz   = "-n 4 -t 3 -budget 768 -shrink=false -corpus CORPUS -json"
		matrix = "-sizes 4:1,5:1 -seeds 0:8 -json"
	)
	machine := regexp.MustCompile(`"(wall_ms|workers)": [0-9.]+`)
	for _, tc := range []struct {
		name, a, b string
		scrub      *regexp.Regexp
		want       []string
	}{
		{"hunt parallel", "hunt " + hunt + " -parallel 1", "hunt " + hunt + " -parallel 8", nil, []string{`"kind": "agreement"`, `"shrunk"`}},
		{"hunt telemetry", "hunt " + hunt + " -parallel 1", "hunt " + hunt + " -parallel 0 -progress -metrics-out METRICS", nil, nil},
		{"hunt coord", "hunt " + hunt, "coord -kind hunt " + hunt + " -inproc 2", nil, nil},
		{"fuzz parallel", "fuzz " + fuzz + " -parallel 1", "fuzz " + fuzz + " -parallel 8", nil, []string{`"corpus_size"`}},
		{"fuzz coord", "fuzz " + fuzz, "coord -kind fuzz " + fuzz + " -inproc 2", nil, nil},
		{"matrix parallel", "matrix " + matrix + " -parallel 1", "matrix " + matrix + " -parallel 8", nil, []string{`"skipped": true`, `"protocol": "floodset"`, `"violating_cells": [1-9]`}},
		{"matrix coord", "matrix " + matrix, "coord -kind matrix " + matrix + " -inproc 2", nil, nil},
		{"exp parallel", "exp -json -parallel 1 E8", "exp -json -parallel 4 E8", machine, []string{`"table"`}},
		{"falsify parallel", "falsify -proto weak-via-ic -n 24 -t 8 -v -parallel 1", "falsify -proto weak-via-ic -n 24 -t 8 -v -parallel 4", nil, []string{"paid the quadratic price"}},
		{"falsify lifted", "falsify -proto dolev-strong -n 9 -t 8 -v -parallel 1", "falsify -proto dolev-strong -n 9 -t 8 -v -parallel 4", nil, []string{"paid the quadratic price"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			side := func(cmd, tag string) (stdout, corpus []byte) {
				file := filepath.Join(dir, tag+".corpus.json")
				cmd = strings.ReplaceAll(cmd, "CORPUS", file)
				cmd = strings.ReplaceAll(cmd, "METRICS", filepath.Join(dir, tag+".metrics.jsonl"))
				stdout, _, err := captureRun(t, strings.Fields(cmd))
				if err != nil {
					t.Fatalf("baexp %s: %v", cmd, err)
				}
				if tc.scrub != nil {
					stdout = tc.scrub.ReplaceAll(stdout, nil)
				}
				if strings.Contains(cmd, file) {
					if corpus, err = os.ReadFile(file); err != nil {
						t.Fatal(err)
					}
				}
				return stdout, corpus
			}
			outA, corpusA := side(tc.a, "a")
			outB, corpusB := side(tc.b, "b")
			if len(outA) == 0 || !bytes.Equal(outA, outB) {
				t.Errorf("stdout differs:\nbaexp %s\n%s\nbaexp %s\n%s", tc.a, outA, tc.b, outB)
			}
			if !bytes.Equal(corpusA, corpusB) {
				t.Errorf("`baexp %s` and `baexp %s` leave different corpus files", tc.a, tc.b)
			}
			for _, want := range tc.want {
				if !regexp.MustCompile(want).Match(outA) {
					t.Errorf("baexp %s: output lacks %s", tc.a, want)
				}
			}
		})
	}
}
