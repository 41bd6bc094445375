package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// verdict of one (workload, end-to-end metric) pair, B against A.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved" // run-to-run spread wider than the bound
	regressed  verdict = "regressed"
)

// worsening is how much b is worse than a as a share of a: positive when
// b lost, negative when it gained, whatever the metric's direction.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the rules of the choosing-metrics guide (§6.5, §8) to one
// metric measured on the parent (a) and on the change (b):
//
//   - regressed: b's median is worse than a's by more than the bound;
//   - improved: b wins at least nine tenths of the run pairs (ties count
//     for neither side) and the medians differ by more than the distance
//     between a's own quartiles; or the spread is too wide to resolve the
//     bound, yet every run of b reads better than every run of a;
//   - unresolved: neither, and either side's inter-quartile spread is wider
//     than the bound, so "no regression" cannot be claimed;
//   - unchanged: everything else.
func judge(a, b *metricResult) verdict {
	if worsening(a.Better, a.Stats.Median, b.Stats.Median) > a.Bound {
		return regressed
	}
	wins, losses := 0, 0
	for i := 0; i < len(a.Values) && i < len(b.Values); i++ {
		switch w := worsening(a.Better, a.Values[i], b.Values[i]); {
		case w < 0:
			wins++
		case w > 0:
			losses++
		}
	}
	gap := math.Abs(b.Stats.Median - a.Stats.Median)
	gain := worsening(a.Better, a.Stats.Median, b.Stats.Median) < 0
	if gain && wins+losses > 0 && float64(wins) >= 0.9*float64(wins+losses) && gap > a.Stats.Q3-a.Stats.Q1 {
		return improved
	}
	if a.Stats.spread() > a.Bound || b.Stats.spread() > a.Bound {
		// Every run of b better than every run of a still resolves it.
		if (a.Better == "higher" && b.Stats.Min > a.Stats.Max) || (a.Better == "lower" && b.Stats.Max < a.Stats.Min) {
			return improved
		}
		return unresolved
	}
	return unchanged
}

func readResult(path string) (*setResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res setResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareSets prints one row per (workload, end-to-end metric) with both
// medians and quartiles, the ratio with its base, and the verdict. It
// returns false when any metric regressed or any workload's share of
// failed operations rose.
func compareSets(spec *benchSpec, a, b *setResult, w io.Writer) bool {
	fmt.Fprintf(w, "A: %s, commit %s (dirty %t), %d runs\n", a.Env.CPUModel, a.Env.Commit, a.Env.Dirty, len(a.Seeds))
	fmt.Fprintf(w, "B: %s, commit %s (dirty %t), %d runs\n", b.Env.CPUModel, b.Env.Commit, b.Env.Dirty, len(b.Seeds))
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NumCPU != b.Env.NumCPU || a.Seconds != b.Seconds {
		fmt.Fprintln(w, "warning: the two sets were not measured on the same machine and settings; the verdicts below compare machines, not commits")
	}
	fmt.Fprintf(w, "\n%-16s %-14s %12s %25s %12s %25s %16s %8s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A (base A)", "bound", "verdict")
	ok := true
	for _, wl := range spec.Workloads {
		wa, wb := a.workload(wl.Name), b.workload(wl.Name)
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-16s missing from one set\n", wl.Name)
			ok = false
			continue
		}
		for _, d := range spec.EndToEnd {
			ma, mb := wa.metric(d.Name), wb.metric(d.Name)
			if ma == nil || mb == nil {
				fmt.Fprintf(w, "%-16s %-14s missing from one set\n", wl.Name, d.Name)
				ok = false
				continue
			}
			v := judge(ma, mb)
			if v == regressed {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-14s %12.6g %25s %12.6g %25s %15.3fx %7.0f%%  %s\n", wl.Name, d.Name,
				ma.Stats.Median, fmt.Sprintf("[%.5g, %.5g]", ma.Stats.Q1, ma.Stats.Q3),
				mb.Stats.Median, fmt.Sprintf("[%.5g, %.5g]", mb.Stats.Q1, mb.Stats.Q3),
				mb.Stats.Median/ma.Stats.Median, 100*ma.Bound, v)
		}
		fa, fb := float64(wa.Failed)/float64(wa.Attempted), float64(wb.Failed)/float64(wb.Attempted)
		state := "unchanged"
		if fb > fa {
			state, ok = "regressed", false
		}
		fmt.Fprintf(w, "%-16s %-14s %12.6g %25s %12.6g %25s %16s %8s  %s\n", wl.Name, "fail_share", fa, "", fb, "", "", "0%", state)
		for i := 0; i < len(wa.ReportSHA256) && i < len(wb.ReportSHA256); i++ {
			if wa.ReportSHA256[i] != wb.ReportSHA256[i] && i < len(a.Seeds) && i < len(b.Seeds) && a.Seeds[i] == b.Seeds[i] {
				fmt.Fprintf(w, "%-16s report_sha256 differs at seed %d: the simulated output changed\n", wl.Name, a.Seeds[i])
				break
			}
		}
	}
	return ok
}

func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !compareSets(spec, a, b, stdout) {
		fmt.Fprintln(stdout, "\nFAIL: at least one end-to-end metric regressed beyond its bound, or more operations failed")
		return 1
	}
	fmt.Fprintln(stdout, "\nOK: no end-to-end metric regressed beyond its bound")
	return 0
}

// calibrationRuns is the number of runs per workload in each calibration
// set: the count the benchmark contract takes its quartiles over.
const calibrationRuns = 10

// calibrateSets measures the same commit twice, ten runs per workload
// each with its own seed, and holds the benchmark to its own bounds the
// way the contract does: in each set the inter-quartile spread of every
// end-to-end metric (setup_s excepted) must stay within the metric's
// bound, and the second set's median must not be worse than the first's
// by more than the bound. It also prints the bound the spreads call for
// (three times the widest spread, at least 10 %, at most the contract's
// 25 %), which is how the bounds in BENCHMARK.json were chosen.
func calibrateSets(spec *benchSpec, root, outDir string, seconds float64, stdout, stderr io.Writer) int {
	var sets [2]*setResult
	for i := range sets {
		fmt.Fprintf(stdout, "calibration set %d of 2\n", i+1)
		res, err := runSet(spec, root, outDir, seedsFrom(1, calibrationRuns), seconds, false, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		sets[i] = res
		if err := writeResult(filepath.Join(outDir, fmt.Sprintf("calibrate-%d.json", i+1)), res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	ok := true
	fmt.Fprintf(stdout, "\n%-16s %-14s %9s %9s %9s %7s  %s\n", "workload", "metric", "spread 1", "spread 2", "shift", "bound", "")
	for _, d := range spec.EndToEnd {
		widest := 0.0
		for _, wl := range spec.Workloads {
			m1, m2 := sets[0].workload(wl.Name).metric(d.Name), sets[1].workload(wl.Name).metric(d.Name)
			s1, s2 := m1.Stats.spread(), m2.Stats.spread()
			shift := worsening(d.Better, m1.Stats.Median, m2.Stats.Median)
			note := ""
			if d.Name != "setup_s" {
				if s1 > widest {
					widest = s1
				}
				if s2 > widest {
					widest = s2
				}
				if s1 > d.Bound || s2 > d.Bound {
					note, ok = "SPREAD BEYOND BOUND", false
				}
			}
			if shift > d.Bound {
				note, ok = "SETS DISAGREE BEYOND BOUND", false
			}
			fmt.Fprintf(stdout, "%-16s %-14s %8.2f%% %8.2f%% %+8.2f%% %6.0f%%  %s\n", wl.Name, d.Name, 100*s1, 100*s2, 100*shift, 100*d.Bound, note)
		}
		if d.Name != "setup_s" {
			want := 3 * widest
			if want < 0.10 {
				want = 0.10
			}
			if want > 0.25 {
				want = 0.25
			}
			fmt.Fprintf(stdout, "%-16s %-14s widest spread %.2f%% calls for a bound of %.0f%% (declared %.0f%%)\n", "", d.Name, 100*widest, 100*want, 100*d.Bound)
		}
	}
	for _, wl := range spec.Workloads {
		w1, w2 := sets[0].workload(wl.Name), sets[1].workload(wl.Name)
		if w1.Failed+w2.Failed != 0 {
			fmt.Fprintf(stdout, "%-16s %d operations failed\n", wl.Name, w1.Failed+w2.Failed)
			ok = false
		}
		for i := range w1.ReportSHA256 {
			if w1.ReportSHA256[i] != w2.ReportSHA256[i] {
				fmt.Fprintf(stdout, "%-16s report_sha256 differs between the sets at seed %d\n", wl.Name, sets[0].Seeds[i])
				ok = false
			}
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "\nFAIL: the two sets do not agree within the benchmark's own bounds")
		return 1
	}
	fmt.Fprintln(stdout, "\nOK: both sets hold every bound and agree with each other")
	return 0
}
