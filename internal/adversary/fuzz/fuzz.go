// Package fuzz implements coverage-guided adaptive hunting over the
// adversary layer: instead of sweeping fresh seeds blindly (the campaign
// engine's strategy), it grows a corpus of explicit fault plans and
// mutates them — adding, dropping, retargeting and round-shifting
// omissions, promoting omission-faulty processes to Byzantine machines,
// crossing corpus parents over, re-seeding proposal vectors — steering the
// search with a coverage signal read off the engine's lean
// RecordDecisions tier: a novelty hash over per-round
// sent/omitted/received count vectors plus the decision pattern. Probes
// that exercise new engine behavior enter a persisted, replayable JSON
// corpus; probes that violate a property flow into the campaign
// subsystem's evidence pipeline (adversary.Target), then shrinking and
// independent recheck.
//
// Scheduling is generation-batched on the experiment runner pool: every
// generation's candidates are derived sequentially from the
// corpus-at-generation-start, probed in parallel, and folded back into
// the corpus sequentially in slot order. Corpus growth and the report
// therefore depend only on the fuzzer's inputs, never on scheduling —
// reports and corpora are byte-identical at every parallelism level, the
// repo-wide invariant.
package fuzz

import (
	"context"
	"fmt"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/experiments/runner"
	"expensive/internal/obs"
	"expensive/internal/sim"
)

// fuzzObs bundles the fuzzer's telemetry handles, resolved once per Run
// from the recorder on f.Ctx. The zero value (telemetry off) leaves every
// handle nil, so each instrument call costs one pointer check. Nothing
// here feeds back into candidate derivation, probing, or folding — the
// report and corpus stay byte-identical with telemetry on or off.
type fuzzObs struct {
	probes      *obs.Counter   // fuzz_probes: candidates executed
	violations  *obs.Counter   // fuzz_violations: violating candidates
	generations *obs.Counter   // fuzz_generations: batches folded
	newCoverage *obs.Counter   // fuzz_new_coverage: novel coverage hashes
	corpusSize  *obs.Gauge     // fuzz_corpus_size: current population
	probeNS     *obs.Histogram // fuzz_probe_ns: per-candidate latency
	sink        *obs.Sink
}

func fuzzObsFrom(ctx context.Context) fuzzObs {
	rec := obs.From(ctx)
	if rec == nil {
		return fuzzObs{}
	}
	return fuzzObs{
		probes:      rec.Counter("fuzz_probes"),
		violations:  rec.Counter("fuzz_violations"),
		generations: rec.Counter("fuzz_generations"),
		newCoverage: rec.Counter("fuzz_new_coverage"),
		corpusSize:  rec.Gauge("fuzz_corpus_size"),
		probeNS:     rec.Histogram("fuzz_probe_ns"),
		sink:        rec.Sink(),
	}
}

// Fuzzer is one coverage-guided hunt: a target protocol, a seed strategy
// (or a resumed corpus) and a probe budget.
type Fuzzer struct {
	// Target is the protocol under attack (Factory, Rounds, N and T are
	// required); its Protocol name also keys corpus compatibility.
	adversary.Target
	// Seed is the strategy whose plans populate generation 0. Required
	// unless a non-empty Corpus is supplied.
	Seed adversary.Strategy
	// Budget is the total number of candidate probes (required, positive).
	Budget int
	// SeedProbes sizes generation 0 (default 32); GenSize sizes every
	// mutation generation (default 64). Both are scheduling-independent.
	SeedProbes int
	GenSize    int
	// FuzzSeed is the master seed every deterministic choice derives from.
	FuzzSeed int64
	// Shrink minimizes every recorded violation after the run.
	Shrink bool
	// MaxViolations caps the violations recorded in the report (0 = all).
	MaxViolations int
	// StopOnViolation ends the run after the first generation that found a
	// violation (the whole generation still completes and is folded in, so
	// the report stays scheduling-independent).
	StopOnViolation bool
	// Corpus optionally resumes from a previous run's population (its
	// protocol/n/t must match). Run appends novel entries to it; when nil,
	// Run installs a fresh corpus here so the grown population is
	// available (and persistable) after the run.
	Corpus *Corpus
	// Parallelism is the probe worker count; <= 0 means NumCPU, 1 serial.
	Parallelism int
	// Ctx cancels the run; nil means context.Background().
	Ctx context.Context
}

// Report is the deterministic outcome of a fuzzing run: everything in the
// JSON encoding depends only on the fuzzer's inputs (including a resumed
// corpus), never on scheduling — reports are byte-identical at every
// parallelism level. Wall-clock statistics are carried alongside but
// excluded from the encoding.
type Report struct {
	// StreamVersion is the adversary.StreamVersion the seed plans,
	// proposals and mutations were drawn under.
	StreamVersion int    `json:"stream_version"`
	Protocol      string `json:"protocol"`
	SeedStrategy  string `json:"seed_strategy,omitempty"`
	N             int    `json:"n"`
	T             int    `json:"t"`
	Rounds        int    `json:"round_bound"`
	Horizon       int    `json:"horizon"`
	Budget        int    `json:"budget"`
	// Probes counts executed candidate probes; Generations counts the
	// processed batches (seeding included).
	Probes      int `json:"probes"`
	Generations int `json:"generations"`
	// CorpusLoaded is the resumed population size; CorpusSize the final
	// one; NewCoverage the entries this run added (novel coverage hashes).
	CorpusLoaded int `json:"corpus_loaded"`
	CorpusSize   int `json:"corpus_size"`
	NewCoverage  int `json:"new_coverage"`
	// Ledger is the fold of the probes: the violations (Violations records
	// up to MaxViolations of them in probe order; a violation's Seed field
	// carries the 1-based global probe index that found it) and the cost
	// histograms, live after every folded generation.
	adversary.Ledger

	// Timing statistics (excluded from the JSON encoding: they vary run to
	// run while the report above must not).
	Wall         time.Duration `json:"-"`
	WallMS       float64       `json:"-"`
	ProbesPerSec float64       `json:"-"`
	Workers      int           `json:"-"`
}

// Broken reports whether the run found at least one violation.
func (r *Report) Broken() bool { return r.ViolationCount > 0 }

func (f *Fuzzer) validate() error {
	if err := f.Target.Err(); err != nil {
		return fmt.Errorf("fuzz: %w", err)
	}
	switch {
	case f.Budget <= 0:
		return fmt.Errorf("fuzz: probe budget must be positive, got %d", f.Budget)
	case f.Seed.Build == nil && (f.Corpus == nil || f.Corpus.Size() == 0):
		return fmt.Errorf("fuzz: need a seed strategy or a non-empty corpus")
	}
	if f.Corpus != nil && f.Corpus.Size() > 0 {
		if f.Corpus.Protocol != f.Protocol || f.Corpus.N != f.N || f.Corpus.T != f.T {
			return fmt.Errorf("fuzz: corpus was grown against %s n=%d t=%d, fuzzing %s n=%d t=%d",
				f.Corpus.Protocol, f.Corpus.N, f.Corpus.T, f.Protocol, f.N, f.T)
		}
		if err := adversary.CheckStreamVersion("corpus", f.Corpus.StreamVersion); err != nil {
			return fmt.Errorf("fuzz: %w", err)
		}
	}
	return nil
}

// seedCount is the size of generation 0: SeedProbes (default 32), capped
// by the budget.
func (f *Fuzzer) seedCount() int {
	n := 32
	if f.SeedProbes > 0 {
		n = f.SeedProbes
	}
	return min(n, f.Budget)
}

func (f *Fuzzer) genSize() int {
	if f.GenSize > 0 {
		return f.GenSize
	}
	return 64
}

// ShrinkOptions returns the configuration for shrinking and independently
// re-checking violations this fuzzer found: its own target.
func (f *Fuzzer) ShrinkOptions() adversary.ShrinkOptions {
	return adversary.ShrinkOptions{Target: f.Target}
}

// Outcome is one probe's deterministic result. It is JSON-serializable
// because distributed workers execute probes remotely and ship outcomes
// back to the coordinator's fold.
type Outcome struct {
	Cov uint64 `json:"cov"`
	adversary.Cost
	V *adversary.Violation `json:"violation,omitempty"`
	// Cand carries the probe's replayable form: the candidate itself for
	// mutants, the extracted explicit plan for seed probes (nil when the
	// seed plan is not replayable — it is then reported but not grown
	// from).
	Cand *Candidate `json:"candidate,omitempty"`
}

// Run executes the hunt and returns the report. Errors indicate harness
// failures — an invalid fuzzer, an engine-invalid trace, a non-conformant
// honest machine, a full replay diverging from its lean probe — never mere
// protocol-property violations, which land in the report.
//
// Run is a thin scheduling loop over the Session API: derive a generation,
// probe it on the worker pool, fold it back in slot order. The distributed
// coordinator drives the identical Session with remote probes, which is
// why its reports and corpora are byte-identical to Run's.
func (f *Fuzzer) Run() (*Report, error) {
	sw := runner.StartWall()
	s, err := f.NewSession()
	if err != nil {
		return nil, err
	}
	workers := runner.Workers(f.Parallelism)
	for g := s.NextGeneration(); g != nil; g = s.NextGeneration() {
		results, err := runner.Map(f.Ctx, workers, g.Count, func(i int) (Outcome, error) {
			return s.Probe(g, i)
		})
		if err != nil {
			return nil, err
		}
		s.Fold(g, results)
	}
	report, err := s.Finish()
	if err != nil {
		return nil, err
	}
	report.Wall, report.WallMS, report.ProbesPerSec = sw.WallStats(report.Probes)
	return report, nil
}

// Prober resolves the fuzzer's probe environment once for a batch of
// externally scheduled probes — the distributed worker's path, where the
// coordinator owns the corpus and the session state and ships this side
// only (generation, index) pairs and derived candidates.
type Prober struct {
	f   *Fuzzer
	env adversary.Env
	fo  fuzzObs
}

// Prober returns a probe executor bound to this fuzzer's environment.
func (f *Fuzzer) Prober() *Prober {
	return &Prober{
		f:   f,
		env: f.Env(),
		fo:  fuzzObsFrom(f.Ctx),
	}
}

// SeedCount is the number of generation-0 probes: Seed accepts i in
// [0, SeedCount).
func (p *Prober) SeedCount() int { return p.f.seedCount() }

// Seed executes generation-0 probe i (the strategy-seeded probes).
func (p *Prober) Seed(i int) (Outcome, error) { return p.f.seedProbe(i, p.env, p.fo) }

// Candidate executes one derived candidate at the lean tier with full
// replay of violations, exactly like a mutation-generation probe.
func (p *Prober) Candidate(c *Candidate) (Outcome, error) { return p.f.mutantProbe(c, p.env, p.fo) }

// seedProbe runs one generation-0 probe: the seed strategy's plan through
// Target.Evidence on every seed — the trace is needed to extract the
// replayable explicit plan the mutation generations grow from.
func (f *Fuzzer) seedProbe(i int, env adversary.Env, fo fuzzObs) (Outcome, error) {
	t := fo.probeNS.StartTimer()
	defer func() {
		t.Stop()
		fo.probes.Inc()
	}()
	seed := adversary.SubSeed(f.FuzzSeed, fmt.Sprintf("seed|%d", i))
	proposals := f.Seed.ProposalsFor(seed, env)
	e, ep, v, err := f.Evidence(env, f.Seed.Build(seed, env), proposals)
	if err != nil {
		return Outcome{}, fmt.Errorf("seed probe %d: %w", i, err)
	}
	out := Outcome{Cov: coverage(e), Cost: adversary.CostOf(e), V: v}
	if ep != nil {
		out.Cand = &Candidate{Plan: *ep, Proposals: proposals, Parent: -1, Op: "seed"}
	}
	return out, nil
}

// mutantProbe runs one mutated candidate through Target.Probe: the lean
// tier gives the coverage hash and the property verdict, and only a
// violating candidate pays for the evidence, exactly as campaign probes
// do.
func (f *Fuzzer) mutantProbe(c *Candidate, env adversary.Env, fo fuzzObs) (Outcome, error) {
	t := fo.probeNS.StartTimer()
	defer func() {
		t.Stop()
		fo.probes.Inc()
	}()
	e, v, err := f.Probe(env, func() sim.FaultPlan { return c.Plan.Plan(env) }, c.Proposals)
	if err != nil {
		return Outcome{}, fmt.Errorf("mutant (%s of entry %d): %w", c.Op, c.Parent, err)
	}
	return Outcome{Cov: coverage(e), Cost: adversary.CostOf(e), V: v, Cand: c}, nil
}
