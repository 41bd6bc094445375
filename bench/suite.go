package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// metricResult is one metric of one workload over the runs of a set.
type metricResult struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Stats  summary   `json:"stats"`
	Values []float64 `json:"values"`
}

// workloadResult is one workload over the runs of a set.
type workloadResult struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// ReportSHA256 lists the digest of each run's deterministic output, in
	// seed order. The same seeds on another commit must reproduce them
	// unless that commit changes the simulated stream on purpose.
	ReportSHA256 []string       `json:"report_sha256"`
	EndToEnd     []metricResult `json:"end_to_end"`
	PerLayer     []metricResult `json:"per_layer,omitempty"`
	// Printed with every run but not end-to-end metrics (see runResult).
	CPUPerOp  []float64 `json:"cpu_us_per_op"`
	PeakRSSMB []float64 `json:"peak_rss_mb"`
}

// setResult is the file `bench` writes and `bench -compare` reads.
type setResult struct {
	Env       environment      `json:"env"`
	Seeds     []int64          `json:"seeds"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *setResult) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (w *workloadResult) metric(name string) *metricResult {
	for i := range w.EndToEnd {
		if w.EndToEnd[i].Name == name {
			return &w.EndToEnd[i]
		}
	}
	return nil
}

// childLine is the contract's result line as a child process prints it.
type childLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`

	// Read off the run's log lines, not the result line.
	digest              string
	cpuPerOp, peakRSSMB float64
}

// runChild runs one workload once in a fresh process of this binary, so
// heap and GC state never leak from one workload into the next and
// peak_rss_mb is the child's own.
func runChild(name string, seed int64, seconds float64, traced bool, outDir string, stderr io.Writer) (*childLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "-out", outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", name, seed, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	// The digest and the two printed-only figures ride on the log lines.
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "report_sha256":
			res.digest = f[1]
		case "cpu_us_per_op":
			res.cpuPerOp, _ = strconv.ParseFloat(f[1], 64)
		case "peak_rss_mb":
			res.peakRSSMB, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	return &res, nil
}

// runSet runs every workload once per seed, round-robin across the
// workloads so that machine drift spreads evenly over them, each run in
// its own process; with traced it adds one traced pass per workload at
// the first seed.
func runSet(spec *benchSpec, root, outDir string, seeds []int64, seconds float64, traced bool, stdout, stderr io.Writer) (*setResult, error) {
	res := &setResult{Env: readEnvironment(root), Seeds: seeds, Seconds: seconds}
	for _, w := range spec.Workloads {
		wr := workloadResult{Name: w.Name}
		for _, d := range spec.EndToEnd {
			wr.EndToEnd = append(wr.EndToEnd, metricResult{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
		}
		res.Workloads = append(res.Workloads, wr)
	}
	for _, seed := range seeds {
		for wi, w := range spec.Workloads {
			line, err := runChild(w.Name, seed, seconds, false, outDir, stderr)
			if err != nil {
				return nil, err
			}
			wr := &res.Workloads[wi]
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			wr.ReportSHA256 = append(wr.ReportSHA256, line.digest)
			wr.CPUPerOp = append(wr.CPUPerOp, line.cpuPerOp)
			wr.PeakRSSMB = append(wr.PeakRSSMB, line.peakRSSMB)
			fmt.Fprintf(stdout, "%-16s seed %-4d", w.Name, seed)
			for mi := range wr.EndToEnd {
				m := &wr.EndToEnd[mi]
				v := line.Metrics[m.Name].Value
				m.Values = append(m.Values, v)
				fmt.Fprintf(stdout, "  %s %.6g %s", m.Name, v, m.Unit)
			}
			fmt.Fprintf(stdout, "  failed %d/%d\n", line.Failed, line.Attempted)
		}
	}
	for wi := range res.Workloads {
		for mi := range res.Workloads[wi].EndToEnd {
			m := &res.Workloads[wi].EndToEnd[mi]
			m.Stats = summarize(m.Values)
		}
	}
	if traced {
		for wi, w := range spec.Workloads {
			line, err := runChild(w.Name, seeds[0], seconds, true, outDir, stderr)
			if err != nil {
				return nil, err
			}
			wr := &res.Workloads[wi]
			wr.Failed += line.Failed
			wr.Attempted += line.Attempted
			for _, d := range spec.PerLayer {
				// A layer this workload bypasses reads exactly 0; leave it out.
				if v := line.Metrics[d.Name].Value; v != 0 {
					one := []float64{v}
					wr.PerLayer = append(wr.PerLayer, metricResult{Name: d.Name, Unit: d.Unit, Better: d.Better, Stats: summarize(one), Values: one})
				}
			}
		}
	}
	return res, nil
}

func seedsFrom(first int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = first + int64(i)
	}
	return seeds
}

func writeResult(path string, res *setResult) error {
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printSet prints every metric of a set by name with its unit.
func printSet(w io.Writer, res *setResult) {
	e := res.Env
	fmt.Fprintf(w, "\nenvironment: %s, %d CPUs, GOMAXPROCS %d, %s %s/%s, commit %s (dirty %t)\n",
		e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GOOS, e.GOARCH, e.Commit, e.Dirty)
	fmt.Fprintf(w, "%d runs per workload (seeds %d..%d), %.6g s each, one process per run\n\n",
		len(res.Seeds), res.Seeds[0], res.Seeds[len(res.Seeds)-1], res.Seconds)
	fmt.Fprintf(w, "%-16s %-14s %-5s %14s %14s %14s %14s %14s %8s\n", "workload", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, wr := range res.Workloads {
		for _, m := range wr.EndToEnd {
			s := m.Stats
			fmt.Fprintf(w, "%-16s %-14s %-5s %14.6g %14.6g %14.6g %14.6g %14.6g %7.2f%%\n",
				wr.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, 100*s.spread())
		}
		fmt.Fprintf(w, "%-16s %-14s %-5s %14.6g   (%d operations failed of %d)\n", wr.Name, "fail_share", "ratio",
			float64(wr.Failed)/float64(wr.Attempted), wr.Failed, wr.Attempted)
		cpu, rss := summarize(wr.CPUPerOp), summarize(wr.PeakRSSMB)
		fmt.Fprintf(w, "%-16s %-14s %-5s %14.6g %14.6g %14.6g %14.6g %14.6g %7.2f%%  (not gated)\n", wr.Name, "cpu_us_per_op", "us", cpu.Median, cpu.Q1, cpu.Q3, cpu.Min, cpu.Max, 100*cpu.spread())
		fmt.Fprintf(w, "%-16s %-14s %-5s %14.6g %14.6g %14.6g %14.6g %14.6g %7.2f%%  (not gated)\n", wr.Name, "peak_rss_mb", "MB", rss.Median, rss.Q1, rss.Q3, rss.Min, rss.Max, 100*rss.spread())
		for _, m := range wr.PerLayer {
			fmt.Fprintf(w, "%-16s   %-40s %14.6g %s\n", wr.Name, m.Name, m.Stats.Median, m.Unit)
		}
	}
}

// runAll is the default mode: one set, printed and stored as result.json.
func runAll(spec *benchSpec, root, outDir string, seed int64, seconds float64, runs int, traced bool, stdout, stderr io.Writer) int {
	if runs < 1 {
		fmt.Fprintln(stderr, "bench: -runs must be at least 1")
		return 2
	}
	res, err := runSet(spec, root, outDir, seedsFrom(seed, runs), seconds, traced, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printSet(stdout, res)
	path := filepath.Join(outDir, "result.json")
	if err := writeResult(path, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	for _, wr := range res.Workloads {
		if wr.Failed != 0 {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", wr.Name, wr.Failed, wr.Attempted)
			return 1
		}
	}
	return 0
}
