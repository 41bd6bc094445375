package experiments_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"expensive/internal/catalog"
	"expensive/internal/experiments"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/protocols/reduction"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range experiments.AllIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && (id == "E1" || id == "E6" || id == "E8") {
				t.Skip("slow experiment skipped in -short mode")
			}
			tab, err := experiments.Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			out := tab.Render()
			if !strings.Contains(out, id) {
				t.Errorf("%s: render missing id:\n%s", id, out)
			}
			t.Logf("\n%s", out)
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := experiments.Run("E99"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestTablesPinned pins the tables of the experiments that regenerate in
// milliseconds (all but E1, E6 and E8), run serially, one compact JSON
// line each, against testdata/tables.jsonl. A change that moves a table
// on purpose replaces the file with the lines the failure prints and
// states why.
func TestTablesPinned(t *testing.T) {
	var got bytes.Buffer
	for _, id := range []string{"E2", "E3", "E4", "E5", "E7", "E9", "E10", "E11", "E12"} {
		tab, err := experiments.RunWith(id, runner.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		line, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(append(line, '\n'))
	}
	want, err := os.ReadFile("testdata/tables.jsonl")
	if err != nil {
		t.Fatalf("%v\ncontent for a deliberate pin:\n%s", err, got.Bytes())
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d moved:\n got %s", i+1, gotLines[i])
		}
	}
	if t.Failed() || len(gotLines) != len(wantLines) {
		t.Fatalf("testdata/tables.jsonl no longer matches; content for a deliberate pin:\n%s", got.Bytes())
	}
}

// TestE5LeavesOutRefusedProblems checks that E5 drops a problem whose
// catalog spec refuses (n, t) instead of building it outside its
// resilience condition: phase-king needs n > 4t, EIG n > 3t.
func TestE5LeavesOutRefusedProblems(t *testing.T) {
	for _, tc := range []struct{ n, rows int }{{6, 4}, {4, 3}, {3, 2}} {
		tab, err := experiments.E5(tc.n, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if len(tab.Rows) != tc.rows {
			t.Errorf("n=%d t=1: %d rows, want %d:\n%s", tc.n, len(tab.Rows), tc.rows, tab.Render())
		}
	}
}

// TestParallelDeterminism asserts the engine's core contract: a
// registered experiment run with Parallelism 1 (fully serial) and with
// NumCPU workers produces byte-identical Table output — both the
// rendered text and the JSON encoding. The heavyweight IDs (E1, E8) are
// excluded to keep the suite fast; their machinery — the parallel
// falsifier — is covered by the cheap E3 here and by the lowerbound
// package's own determinism test.
func TestParallelDeterminism(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 4 {
		// Still exercise real pool concurrency on small CI machines.
		workers = 4
	}
	for _, id := range []string{"E2", "E3", "E4", "E5", "E6", "E7", "E9", "E10", "E11", "E12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && id == "E6" {
				t.Skip("slow experiment skipped in -short mode")
			}
			serial, err := experiments.RunWith(id, runner.Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			parallel, err := experiments.RunWith(id, runner.Options{Parallelism: workers})
			if err != nil {
				t.Fatalf("parallel(%d): %v", workers, err)
			}
			if s, p := serial.Render(), parallel.Render(); s != p {
				t.Errorf("rendered tables differ between -parallel 1 and -parallel %d:\n--- serial ---\n%s\n--- parallel ---\n%s", workers, s, p)
			}
			sj, err := json.Marshal(serial)
			if err != nil {
				t.Fatal(err)
			}
			pj, err := json.Marshal(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if string(sj) != string(pj) {
				t.Errorf("JSON encodings differ between -parallel 1 and -parallel %d", workers)
			}
		})
	}
}

// TestTheorem3OverTheRegistry hands every registered spec to the
// lower-bound route at t = 8 and the smallest n its resilience condition
// admits, lifted through Algorithm 1 at (0, 1). A protocol that is not
// crash-only must survive with probe executions at or above t²/32; a
// crash-only one may break, but only with a certificate that rechecks,
// which the route enforces.
func TestTheorem3OverTheRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the falsifier on every registered protocol")
	}
	const tf = 8
	for _, spec := range catalog.Protocols() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			switch {
			case spec.Agreement != nil:
				t.Skip("its compatibility relation is not Agreement, which the falsifier checks")
			case spec.ID == "eig" || spec.ID == "weak-eig":
				t.Skip("the EIG tree is ~n⁹ nodes per process at t = 8")
			case strings.HasPrefix(spec.ID, "derived-"):
				t.Skip("derived protocols stop at n ≤ 6")
			case spec.ID == "external":
				t.Skip("needs signed transactions as proposals; E8 lifts it")
			}
			n := tf + 1
			for !spec.SupportedAt(n, tf) {
				n++
			}
			c, err := experiments.Falsifiable(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run(n, tf, lowerbound.Options{Parallelism: 1})
			var trivial *reduction.TrivialLiftError
			if errors.As(err, &trivial) {
				t.Skipf("the route refuses the lift: %v", err)
			}
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			switch {
			case spec.Model == catalog.CrashOnly && rep.Broken():
				t.Logf("n=%d: crash-only, broken with a rechecked certificate: %s", n, rep.Violation)
			case rep.Broken():
				t.Fatalf("n=%d: falsified: %s", n, rep.Violation)
			case rep.MaxCorrectMessages < lowerbound.Floor(tf):
				t.Fatalf("n=%d: survived with at most %d messages, below t²/32 = %d", n, rep.MaxCorrectMessages, lowerbound.Floor(tf))
			default:
				t.Logf("n=%d: survived, max %d messages ≥ t²/32 = %d", n, rep.MaxCorrectMessages, lowerbound.Floor(tf))
			}
		})
	}
}
