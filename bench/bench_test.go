package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeDiv shrinks every workload's fixed work for the smoke test.
const smokeDiv = 100

// TestSmoke runs every workload, untraced and traced, at 1/100 size in
// process and holds the output to the BENCHMARK.json contract: the
// workload list matches the file, every run's result line carries exactly
// the declared metrics in order with finite values, every correctness
// check runs and passes, and every per-layer metric is measured by some
// workload's traced pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("binary has %d workloads, BENCHMARK.json %d", len(ws), len(spec.Workloads))
	}
	seen := make(map[string]bool)
	for _, decls := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, d := range decls {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, nameRE)
			}
			if seen[d.Name] {
				t.Errorf("metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %q: better is %q", d.Name, d.Better)
			}
		}
	}

	out := t.TempDir()
	measured := make(map[string]string) // per-layer metric -> a workload that set it
	for i, w := range ws {
		if w.name != spec.Workloads[i].Name {
			t.Fatalf("workload %d is %q in the binary, %q in BENCHMARK.json", i, w.name, spec.Workloads[i].Name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
		for _, traced := range []bool{false, true} {
			decls := spec.EndToEnd
			if traced {
				decls = spec.PerLayer
			}
			var log bytes.Buffer
			t0 := time.Now()
			res, err := runOne(spec, w, 7, 0.01, traced, smokeDiv, out, &log)
			t.Logf("%s traced=%t: %v", w.name, traced, time.Since(t0))
			if err != nil {
				t.Fatalf("%s traced=%t: %v\n%s", w.name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			if len(res.Metrics) != len(decls) {
				t.Fatalf("%s traced=%t: %d metrics, %d declared", w.name, traced, len(res.Metrics), len(decls))
			}
			for j, e := range res.Metrics {
				if e.Name != decls[j].Name || e.Unit != decls[j].Unit {
					t.Errorf("%s traced=%t: metric %d is %s [%s], declared %s [%s]", w.name, traced, j, e.Name, e.Unit, decls[j].Name, decls[j].Unit)
				}
				if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
					t.Errorf("%s: %s is not finite", w.name, e.Name)
				}
				if !traced && e.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, e.Name, e.Value)
				}
				if traced && e.Set {
					measured[e.Name] = w.name
				}
			}
			// The rendered line must be the contract's JSON object.
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(resultLine(res.Correct, res.Attempted, res.Failed, res.Metrics)), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(decls) {
				t.Errorf("%s traced=%t: result line lacks a key or a metric", w.name, traced)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	// Measured at full size only: the three tables that carry 98 % of
	// paper-tables' wall, the lint gate over the whole module, and the
	// 8 M-message n=256 engine run.
	fullSizeOnly := map[string]bool{
		"experiments.E1_ms": true, "experiments.E6_ms": true, "experiments.E8_ms": true,
		"balint.lint_module_s": true, "sim.lean_msgs_per_s.n256": true,
	}
	for _, d := range spec.PerLayer {
		if measured[d.Name] == "" && !fullSizeOnly[d.Name] {
			t.Errorf("per-layer metric %s is declared but no traced pass measures it", d.Name)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 || median(vals) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v", q1, q3, median(vals))
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of three = %v, %v", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	mk := func(better string, bound float64, values ...float64) *metricResult {
		return &metricResult{Better: better, Bound: bound, Stats: summarize(values), Values: values}
	}
	base := mk("higher", 0.10, 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name string
		b    *metricResult
		want verdict
	}{
		{"same", mk("higher", 0.10, 100, 100, 100, 101, 101, 99, 99, 100, 100, 100), unchanged},
		{"faster", mk("higher", 0.10, 120, 121, 119, 120, 122, 118, 120, 121, 119, 120), improved},
		{"slower", mk("higher", 0.10, 85, 86, 84, 85, 87, 83, 85, 86, 84, 85), regressed},
		{"noisy", mk("higher", 0.10, 60, 140, 99, 100, 130, 70, 100, 125, 75, 100), unresolved},
	}
	for _, c := range cases {
		if got := judge(base, c.b); got != c.want {
			t.Errorf("%s: judged %s, want %s", c.name, got, c.want)
		}
	}
	lower := mk("lower", 0.10, 10, 10.1, 9.9, 10, 10.2)
	if got := judge(lower, mk("lower", 0.10, 12, 12.1, 11.9, 12, 12.2)); got != regressed {
		t.Errorf("lower-is-better slowdown judged %s", got)
	}
}
