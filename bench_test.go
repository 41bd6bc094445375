package expensive_test

import (
	"context"
	"fmt"
	"testing"

	"expensive"
	"expensive/internal/analysis"
	"expensive/internal/analysis/balint"
	"expensive/internal/crypto/sig"
	"expensive/internal/experiments"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/protocols/eig"
	"expensive/internal/protocols/ic"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// Experiment benchmarks: one per paper artifact (see DESIGN.md §4 and
// EXPERIMENTS.md). Each regenerates the corresponding table.

func benchExperiment(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

func benchFalsifier(b *testing.B, parallelism int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.Falsify("leader", cheap.Leader(40), cheap.LeaderRounds, 40, 16,
			lowerbound.Options{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Broken() {
			b.Fatal("leader not falsified")
		}
	}
}

func BenchmarkE1Falsifier(b *testing.B) {
	// The full sweep is heavy; the benchmark uses the cheap-protocol slice
	// at the recorded parameters. Serial vs parallel probe computation.
	b.Run("serial", func(b *testing.B) { benchFalsifier(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchFalsifier(b, 0) })
}

func BenchmarkE2Isolation(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) { return experiments.E2(20, 8, 3) })
}

func BenchmarkE3Merge(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) { return experiments.E3(40, 16, serialOpts) })
}

// serialOpts and parallelOpts pin the two ends of the engine's worker
// range for the parallel-vs-serial comparison benchmarks.
var (
	serialOpts   = runner.Options{Parallelism: 1}
	parallelOpts = runner.Options{Parallelism: 0} // NumCPU
)

func BenchmarkE4Swap(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) { return experiments.E4(24, 8) })
}

func BenchmarkE5Reduction(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) { return experiments.E5(6, 1) })
}

func BenchmarkE6Solvability(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		benchExperiment(b, func() (*experiments.Table, error) { return experiments.E6([][2]int{{4, 1}}, serialOpts) })
	})
	b.Run("parallel", func(b *testing.B) {
		benchExperiment(b, func() (*experiments.Table, error) { return experiments.E6([][2]int{{4, 1}}, parallelOpts) })
	})
}

func BenchmarkE7StrongCC(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) { return experiments.E7(3) })
}

func BenchmarkE8External(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		benchExperiment(b, func() (*experiments.Table, error) { return experiments.E8(40, 16, serialOpts) })
	})
	b.Run("parallel", func(b *testing.B) {
		benchExperiment(b, func() (*experiments.Table, error) { return experiments.E8(40, 16, parallelOpts) })
	})
}

func BenchmarkE9Protocols(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		benchExperiment(b, func() (*experiments.Table, error) { return experiments.E9([]int{4, 8, 16}, serialOpts) })
	})
	b.Run("parallel", func(b *testing.B) {
		benchExperiment(b, func() (*experiments.Table, error) { return experiments.E9([]int{4, 8, 16}, parallelOpts) })
	})
}

func BenchmarkE10FailureModels(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) { return experiments.E10(8, 2) })
}

func BenchmarkE11Ablations(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) { return experiments.E11() })
}

func BenchmarkE12GoodCase(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) { return experiments.E12(10, 4) })
}

// Protocol scaling benchmarks: fault-free runs with message-complexity
// metrics, the series behind E9's table.

func uniformProposals(n int, v msg.Value) []msg.Value {
	out := make([]msg.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func benchProtocol(b *testing.B, factory sim.Factory, n, t, rounds int) {
	benchProtocolAt(b, factory, n, t, rounds, sim.RecordFull)
}

func benchProtocolAt(b *testing.B, factory sim.Factory, n, t, rounds int, rec sim.Recording) {
	b.Helper()
	cfg := sim.Config{N: n, T: t, Proposals: uniformProposals(n, msg.Zero), MaxRounds: rounds + 2, Recording: rec}
	b.ReportAllocs()
	var msgs int
	for i := 0; i < b.N; i++ {
		e, err := sim.Run(cfg, factory, sim.NoFaults{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.CommonDecision(proc.Universe(n)); err != nil {
			b.Fatal(err)
		}
		msgs = e.CorrectMessages()
	}
	b.ReportMetric(float64(msgs), "msgs")
	b.ReportMetric(float64(msgs)/float64(n*n), "msgs/n²")
}

func BenchmarkDolevStrongBB(b *testing.B) {
	scheme := sig.NewIdeal("bench-ds")
	for _, n := range []int{8, 16, 32} {
		t := n / 2
		b.Run(fmt.Sprintf("n=%d_t=%d", n, t), func(b *testing.B) {
			f := dolevstrong.New(dolevstrong.Config{N: n, T: t, Sender: 0, Scheme: scheme, Tag: "bb", Default: "⊥"})
			benchProtocol(b, f, n, t, dolevstrong.RoundBound(t))
		})
	}
}

func BenchmarkInteractiveConsistency(b *testing.B) {
	scheme := sig.NewIdeal("bench-ic")
	for _, n := range []int{4, 8, 16} {
		t := (n - 1) / 3
		b.Run(fmt.Sprintf("n=%d_t=%d", n, t), func(b *testing.B) {
			f := ic.New(ic.Config{N: n, T: t, Scheme: scheme, Default: msg.One})
			benchProtocol(b, f, n, t, ic.RoundBound(t))
		})
	}
}

func BenchmarkEIG(b *testing.B) {
	for _, nt := range [][2]int{{4, 1}, {7, 2}} {
		n, t := nt[0], nt[1]
		b.Run(fmt.Sprintf("n=%d_t=%d", n, t), func(b *testing.B) {
			f := eig.New(eig.Config{N: n, T: t, Default: msg.One})
			benchProtocol(b, f, n, t, eig.RoundBound(t))
		})
	}
}

func BenchmarkPhaseKing(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		t := (n - 1) / 4
		b.Run(fmt.Sprintf("n=%d_t=%d", n, t), func(b *testing.B) {
			f := phaseking.New(phaseking.Config{N: n, T: t})
			benchProtocol(b, f, n, t, phaseking.RoundBound(t))
		})
	}
}

// Campaign throughput benchmarks: the adversary hunt engine's probes/sec
// at the two ends of the worker range. Each probe is a full cycle — plan
// derivation, simulation, execution-guarantee validation, conformance
// re-execution, property checks — so this is the number that tells you
// how much adversarial ground a seed budget covers.

func benchCampaign(b *testing.B, parallelism int, strategy expensive.AttackStrategy) {
	b.Helper()
	n, tf := 8, 2
	factory, rounds := expensive.NewFloodSet(n, tf)
	const seedsPerRun = 128
	b.ReportAllocs()
	var probes int
	for i := 0; i < b.N; i++ {
		c := expensive.NewCampaign("floodset", factory, rounds, n, tf, strategy,
			expensive.SeedRange{From: 0, To: seedsPerRun})
		c.Validity = expensive.CheckWeakValidity
		c.Parallelism = parallelism
		rep, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		probes += rep.Probes
	}
	b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/s")
}

func BenchmarkHuntCampaign(b *testing.B) {
	// Serial vs full-width worker pool (GOMAXPROCS), per strategy family.
	for _, bench := range []struct {
		name     string
		strategy expensive.AttackStrategy
	}{
		{"omission", expensive.StrategyRandomOmission(40)},
		{"targeted", expensive.StrategyTargetedWithhold()},
		{"byzantine", expensive.StrategyChaos()},
	} {
		b.Run(bench.name+"/serial", func(b *testing.B) { benchCampaign(b, 1, bench.strategy) })
		b.Run(bench.name+"/parallel", func(b *testing.B) { benchCampaign(b, 0, bench.strategy) })
	}
}

// Telemetry overhead benchmarks: the flight recorder's contract is that
// the disabled (nil-recorder) instrument sequence a probe loop executes —
// start a timer, bump a counter, stop the timer — costs a few nil checks
// and zero allocations, and the enabled path stays cheap enough to leave
// on under -progress/-metrics-out. BenchmarkObsDisabled is the number the
// "<1% probe-loop overhead when off" claim rests on; compare a probe at
// BenchmarkEngineRoundLean to see the ratio.

func benchObs(b *testing.B, rec *expensive.Telemetry) {
	b.Helper()
	probes := rec.Counter("probes")
	lat := rec.Histogram("probe_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := lat.StartTimer()
		probes.Inc()
		t.Stop()
	}
}

func BenchmarkObsDisabled(b *testing.B) { benchObs(b, nil) }

func BenchmarkObsEnabled(b *testing.B) { benchObs(b, expensive.NewTelemetry()) }

// BenchmarkHuntCampaignTelemetry is BenchmarkHuntCampaign's targeted
// sweep with a live recorder attached: the end-to-end cost of running a
// campaign instrumented rather than dark.
func BenchmarkHuntCampaignTelemetry(b *testing.B) {
	n, tf := 8, 2
	factory, rounds := expensive.NewFloodSet(n, tf)
	rec := expensive.NewTelemetry()
	b.ReportAllocs()
	var probes int
	for i := 0; i < b.N; i++ {
		c := expensive.NewCampaign("floodset", factory, rounds, n, tf,
			expensive.StrategyTargetedWithhold(), expensive.SeedRange{From: 0, To: 128})
		c.Validity = expensive.CheckWeakValidity
		c.Ctx = expensive.WithTelemetry(context.Background(), rec)
		rep, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		probes += rep.Probes
	}
	if rec.Counter("campaign_probes").Value() == 0 {
		b.Fatal("recorder saw no probes")
	}
	b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/s")
}

// benchMatrix sweeps the full registry × two strategies × two sizes.
func benchMatrix(b *testing.B, parallelism int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := expensive.NewMatrix(expensive.SeedRange{From: 0, To: 4})
		m.Strategies = []expensive.NamedStrategy{
			{ID: "targeted-withhold", Strategy: expensive.StrategyTargetedWithhold()},
			{ID: "chaos", Strategy: expensive.StrategyChaos()},
		}
		m.Sizes = []expensive.MatrixSize{{N: 4, T: 1}, {N: 5, T: 1}}
		m.Parallelism = parallelism
		grid, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !grid.Broken() {
			b.Fatal("matrix found no FloodSet split")
		}
	}
}

func BenchmarkMatrix(b *testing.B) {
	// Registry-wide sweep throughput, serial vs full-width cell pool.
	b.Run("serial", func(b *testing.B) { benchMatrix(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchMatrix(b, 0) })
}

// benchFuzz runs the coverage-guided fuzzer to its first FloodSet split
// at t = n-1 — the adaptive counterpart of benchCampaign's blind sweep.
func benchFuzz(b *testing.B, parallelism int) {
	b.Helper()
	b.ReportAllocs()
	probes := 0
	firstViolation := 0
	for i := 0; i < b.N; i++ {
		proto, _ := expensive.LookupProtocol("floodset")
		f, err := expensive.NewFuzzerFor(proto, expensive.DefaultProtocolParams(4, 3),
			expensive.StrategyRandomSendOmission(40), 2048)
		if err != nil {
			b.Fatal(err)
		}
		f.StopOnViolation = true
		f.Parallelism = parallelism
		rep, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Broken() {
			b.Fatal("fuzzer found no FloodSet split within budget")
		}
		probes += rep.Probes
		firstViolation = rep.FirstViolationProbe
	}
	b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/s")
	b.ReportMetric(float64(firstViolation), "probes-to-violation")
}

func BenchmarkFuzz(b *testing.B) {
	// Adaptive-hunt throughput and probes-to-first-violation, serial vs
	// full-width worker pool.
	b.Run("serial", func(b *testing.B) { benchFuzz(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchFuzz(b, 0) })
}

func BenchmarkShrink(b *testing.B) {
	// Minimization cost of one found FloodSet counterexample.
	n, tf := 8, 2
	factory, rounds := expensive.NewFloodSet(n, tf)
	newAt := func(n, t int) (expensive.Factory, int, error) {
		f, r := expensive.NewFloodSet(n, t)
		return f, r, nil
	}
	c := expensive.NewCampaign("floodset", factory, rounds, n, tf,
		expensive.StrategyTargetedWithhold(), expensive.SeedRange{From: 0, To: 16})
	c.Validity = expensive.CheckWeakValidity
	rep, err := c.Run()
	if err != nil {
		b.Fatal(err)
	}
	if !rep.Broken() {
		b.Fatal("no violation to shrink")
	}
	v := rep.Violations[0]
	opts := expensive.ShrinkOptions{
		Target: expensive.AttackTarget{
			Factory:  factory,
			Rounds:   rounds,
			N:        n,
			T:        tf,
			New:      newAt,
			Validity: expensive.CheckWeakValidity,
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		sh, err := expensive.Shrink(v, opts)
		if err != nil {
			b.Fatal(err)
		}
		steps = sh.Steps
	}
	b.ReportMetric(float64(steps), "replays")
}

// BenchmarkBalint is the static-analysis gate's wall time: load the
// whole module, type-check it, build the call graph and taint summaries,
// and run all eight analyzers — the cost every `scripts/lint.sh` run and
// CI lint job pays. A clean tree must yield only suppressed findings.
func BenchmarkBalint(b *testing.B) {
	b.ReportAllocs()
	var findings int
	for i := 0; i < b.N; i++ {
		diags, err := balint.LintModule(".")
		if err != nil {
			b.Fatal(err)
		}
		if n := len(analysis.Unsuppressed(diags)); n != 0 {
			b.Fatalf("%d unsuppressed findings in a clean tree", n)
		}
		findings = len(diags)
	}
	b.ReportMetric(float64(findings), "findings")
}

func BenchmarkCheckCC(b *testing.B) {
	problems := []validity.Problem{
		validity.Weak(5, 2),
		validity.Strong(5, 2),
		validity.Broadcast(5, 2, 0),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range problems {
			res := p.CheckCC()
			if !res.Holds {
				b.Fatalf("%s: CC should hold", p.Name)
			}
		}
	}
}

func BenchmarkEngineRound(b *testing.B) {
	// Raw engine throughput: phase-king at n=64 (quadratic fan-out), at
	// the full Appendix A.1.6 recording tier.
	n := 64
	t := (n - 1) / 4
	f := phaseking.New(phaseking.Config{N: n, T: t})
	benchProtocol(b, f, n, t, phaseking.RoundBound(t))
}

func BenchmarkEngineRoundLean(b *testing.B) {
	// Same run at RecordDecisions: the pooled, allocation-free round loop
	// the probe sweeps ride on.
	n := 64
	t := (n - 1) / 4
	f := phaseking.New(phaseking.Config{N: n, T: t})
	benchProtocolAt(b, f, n, t, phaseking.RoundBound(t), sim.RecordDecisions)
}

func BenchmarkMemClusterRound(b *testing.B) {
	// Live goroutine mesh vs. the simulator: same protocol, real channels.
	n, t := 16, 3
	factory, rounds := expensive.NewWeakConsensusPhaseKing(n, t)
	proposals := make([]expensive.Value, n)
	for i := range proposals {
		proposals[i] = expensive.Bit(i % 2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mesh := expensive.NewMemMesh(n, nil)
		results, err := expensive.RunCluster(mesh, n, factory, proposals, rounds)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := expensive.ClusterDecision(results, expensive.Universe(n)); err != nil {
			b.Fatal(err)
		}
	}
}
