// Command bench is the repository's benchmark: eight named workloads,
// four end-to-end metrics measured on each, and a traced pass per
// workload that attributes time to the layers. BENCHMARK.json at the
// repository root declares the workloads, metrics and regression bounds;
// README.md in this directory says why each exists.
//
// Every layer is measured from outside, by timing calls into its exported
// functions. The benchmark reads its own clock and never a value the
// program's telemetry produced.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run this one workload and print its result line (the BENCHMARK.json contract); empty runs them all")
		seed      = fs.Int64("seed", 1, "workload seed: every input is derived from it")
		seconds   = fs.Float64("seconds", 0, "measure whole rounds until this many seconds have passed (0 = BENCHMARK.json run_seconds)")
		trace     = fs.Int("trace", 0, "1 = the traced pass (per-layer metrics, span file); 0 = the untraced run (end-to-end metrics)")
		runs      = fs.Int("runs", 3, "runs per workload and set, each with its own seed, when running them all")
		compare   = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		calibrate = fs.Bool("calibrate", false, "run two sets of ten runs per workload and check them against the bounds")
		out       = fs.String("out", "", "directory for result.json and span files (default bench/out)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out")
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *calibrate:
		return calibrateSets(spec, root, *out, *seconds, stdout, stderr)
	case *name == "":
		return runAll(spec, root, *out, *seed, *seconds, *runs, *trace == 1, stdout, stderr)
	}

	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runOne(spec, w, *seed, *seconds, *trace == 1, 1, *out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, resultLine(res.Correct, res.Attempted, res.Failed, res.Metrics))
	return 0
}

// runOutput is what one run reports: the contract's result line, unrendered.
type runOutput struct {
	Correct           bool
	Attempted, Failed int
	Metrics           []emitted
}

// runOne executes one run of one workload — untraced for the end-to-end
// metrics, traced for the per-layer ones — and prints every metric by
// name with its unit.
func runOne(spec *benchSpec, w workload, seed int64, seconds float64, traced bool, div int, outDir string, log io.Writer) (runOutput, error) {
	m := newMetricSet(spec)
	if !traced {
		res, err := runUntraced(w, seed, seconds, div, m, log)
		if err != nil {
			return runOutput{}, err
		}
		ms, err := m.collect(spec.EndToEnd, true)
		if err != nil {
			return runOutput{}, err
		}
		fmt.Fprintf(log, "workload %s seed %d: %d rounds (%d set aside as disturbed), %d operations checked, %d failed; closed loop, one client, engine parallelism 1; work counted in %ss\n",
			w.name, seed, res.Rounds, res.Rounds-res.Kept, res.Attempted, res.Failed, w.op)
		fmt.Fprintf(log, "report_sha256 %s\n", res.Digest)
		printMetrics(log, ms)
		fmt.Fprintf(log, "%-42s %18.6g us (printed, not gated)\n", "cpu_us_per_op", res.CPUPerOp)
		fmt.Fprintf(log, "%-42s %18.6g MB (printed, not gated)\n", "peak_rss_mb", res.PeakRSSMB)
		return runOutput{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: ms}, nil
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return runOutput{}, err
	}
	tr := newTracer(fmt.Sprintf("%s/seed-%d", w.name, seed), outDir)
	root := tr.begin("bench.traced_run")
	attempted, failed, err := w.trace(seed, div, tr, m)
	wall := tr.end(root)
	if err != nil {
		return runOutput{}, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	// Self times partition the root span, so their sum against its wall
	// says whether any span was left open or overlapped its parent.
	var selfSum float64
	stats := tr.byName()
	for _, s := range stats {
		selfSum += s.Self.Seconds()
	}
	m.set("trace.wall_s", wall.Seconds())
	m.set("trace.self_sum_ratio", selfSum/wall.Seconds())
	m.set("trace.spans", float64(len(tr.spans)))
	if err := m.err(); err != nil {
		return runOutput{}, err
	}
	path, err := tr.write(w.name)
	if err != nil {
		return runOutput{}, err
	}
	ms, err := m.collect(spec.PerLayer, false)
	if err != nil {
		return runOutput{}, err
	}
	fmt.Fprintf(log, "workload %s seed %d traced: %d spans in %s\n", w.name, seed, len(tr.spans), path)
	fmt.Fprintf(log, "%-34s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	var layers []nameStat // self time by layer: the part of a span name before the first dot
	for _, s := range stats {
		fmt.Fprintf(log, "%-34s %10d %12.3f %12.3f\n", s.Name, s.Count, s.Total.Seconds()*1e3, s.Self.Seconds()*1e3)
		if n := len(layers); n == 0 || layers[n-1].Name != layerOf(s.Name) {
			layers = append(layers, nameStat{Name: layerOf(s.Name)})
		}
		layers[len(layers)-1].Self += s.Self
	}
	for _, l := range layers {
		fmt.Fprintf(log, "layer %-28s self %12.3f ms  %5.1f%% of the traced run\n", l.Name, l.Self.Seconds()*1e3, 100*l.Self.Seconds()/wall.Seconds())
	}
	printMetrics(log, ms)
	return runOutput{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// printMetrics prints every measured metric by name with its unit. A
// per-layer metric this workload's traced pass does not touch is left
// out here (the result line carries it as 0).
func printMetrics(w io.Writer, ms []emitted) {
	for _, e := range ms {
		if e.Set {
			fmt.Fprintf(w, "%-42s %18.6g %s\n", e.Name, e.Value, e.Unit)
		}
	}
}
