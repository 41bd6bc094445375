package fuzz

import (
	"fmt"

	"expensive/internal/adversary"
	"expensive/internal/experiments/runner"
	"expensive/internal/obs"
)

// Session is the fuzzer's resumable core: the sequential half of the
// generation loop — candidate derivation, corpus growth, report folding —
// split out from probe execution so a scheduler (Run's local worker pool
// or the distributed coordinator) can execute probes anywhere while the
// session keeps every byte of the report and corpus
// scheduling-independent. The protocol is strict: NextGeneration, then
// every probe of that generation, then Fold, repeated until
// NextGeneration returns nil, then Finish.
//
// A Session's externally visible state is JSON-serializable (State), and
// ResumeSession rebuilds an equivalent session from a snapshot: fold a
// resumed session forward through the remaining generations and its
// report and corpus are byte-identical to an uninterrupted run's.
type Session struct {
	f      *Fuzzer
	env    adversary.Env
	fo     fuzzObs
	corpus *Corpus
	seen   map[uint64]bool
	report *Report
	m      mutator

	// nextGen is the generation NextGeneration derives next: 0 before the
	// seeding generation has been issued, g+1 after generation g.
	nextGen int
}

// Generation is one derived batch of probes. For the seeding generation
// (Seed true) probe i is the seed strategy's i-th plan; otherwise probe i
// executes Candidates[i]. Count is the batch size.
type Generation struct {
	Gen        int         `json:"gen"`
	Seed       bool        `json:"seed,omitempty"`
	Count      int         `json:"count"`
	Candidates []Candidate `json:"candidates,omitempty"`
}

// NewSession validates the fuzzer and opens a session positioned before
// the seeding generation. It installs a fresh corpus on the fuzzer when
// none was supplied, resolves telemetry from f.Ctx, and emits the
// fuzz-start event.
func (f *Fuzzer) NewSession() (*Session, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	s := f.newSession()
	if s.fo.sink != nil {
		s.fo.sink.Emit("fuzz-start",
			"protocol", f.Protocol, "seed_strategy", f.Seed.Name,
			"n", f.N, "t", f.T, "budget", f.Budget, "workers", s.report.Workers)
	}
	return s, nil
}

func (f *Fuzzer) newSession() *Session {
	env := f.Env()
	if f.Corpus == nil {
		f.Corpus = NewCorpus(f.Protocol, f.N, f.T)
	}
	// validate refused a populated corpus of another version; an empty one
	// holds no draws, so it simply becomes a corpus of this version.
	f.Corpus.StreamVersion = adversary.StreamVersion
	s := &Session{
		f:      f,
		env:    env,
		fo:     fuzzObsFrom(f.Ctx),
		corpus: f.Corpus,
		seen:   make(map[uint64]bool, f.Corpus.Size()),
		m:      mutator{n: f.N, t: f.T, horizon: env.Horizon},
		report: &Report{
			StreamVersion: adversary.StreamVersion,
			Protocol:      f.Protocol,
			SeedStrategy:  f.Seed.Name,
			N:             f.N,
			T:             f.T,
			Rounds:        f.Rounds,
			Horizon:       env.Horizon,
			Budget:        f.Budget,
			CorpusLoaded:  f.Corpus.Size(),
			Workers:       runner.Workers(f.Parallelism),
		},
	}
	for _, e := range s.corpus.Entries {
		s.seen[e.Cov] = true
	}
	return s
}

// NextGeneration derives the next batch, or returns nil when the session
// is done: budget exhausted, corpus empty (nothing to mutate), or
// StopOnViolation tripped. The first call issues the seeding generation
// when the corpus started empty; every later call derives GenSize
// candidates sequentially from the corpus as folded so far — exactly the
// derivation order of a single-process run.
func (s *Session) NextGeneration() *Generation {
	if s.nextGen == 0 {
		s.nextGen = 1
		if s.corpus.Size() == 0 {
			return &Generation{Gen: 0, Seed: true, Count: s.f.seedCount()}
		}
	}
	if s.report.Probes >= s.f.Budget || s.corpus.Size() == 0 {
		return nil
	}
	if s.f.StopOnViolation && s.report.ViolationCount > 0 {
		return nil
	}
	g := &Generation{Gen: s.nextGen, Count: min(s.f.genSize(), s.f.Budget-s.report.Probes)}
	g.Candidates = make([]Candidate, g.Count)
	for i := range g.Candidates {
		r := adversary.NewStream(s.f.FuzzSeed, fmt.Sprintf("g%d|s%d", g.Gen, i))
		g.Candidates[i] = s.m.mutate(&r, s.corpus)
	}
	s.nextGen++
	return g
}

// Probe executes probe i of generation g locally. Distributed schedulers
// bypass this and run the equivalent Prober calls on workers.
func (s *Session) Probe(g *Generation, i int) (Outcome, error) {
	if g.Seed {
		return s.f.seedProbe(i, s.env, s.fo)
	}
	return s.f.mutantProbe(&g.Candidates[i], s.env, s.fo)
}

// Fold integrates one generation's outcomes into the corpus and report in
// slot order — the sequential step that keeps everything
// scheduling-independent. results must hold exactly g.Count outcomes in
// probe-index order.
func (s *Session) Fold(g *Generation, results []Outcome) {
	report, corpus := s.report, s.corpus
	covBefore, violBefore := report.NewCoverage, report.ViolationCount
	for i, out := range results {
		probe := report.Probes + i + 1
		if out.V != nil {
			out.V.Seed = int64(probe)
		}
		report.Add(probe, out.Cost, out.V, s.f.MaxViolations)
		if !s.seen[out.Cov] && out.Cand != nil {
			s.seen[out.Cov] = true
			report.NewCoverage++
			corpus.add(Entry{
				Gen:       g.Gen,
				Parent:    out.Cand.Parent,
				Op:        out.Cand.Op,
				Cov:       out.Cov,
				Violating: out.V != nil,
				Plan:      out.Cand.Plan,
				Proposals: out.Cand.Proposals,
			})
		}
	}
	report.Probes += len(results)
	report.Generations++
	s.fo.generations.Inc()
	s.fo.newCoverage.Add(int64(report.NewCoverage - covBefore))
	s.fo.violations.Add(int64(report.ViolationCount - violBefore))
	s.fo.corpusSize.Set(int64(corpus.Size()))
	if s.fo.sink != nil {
		// The coverage-growth curve: one point per folded generation.
		s.fo.sink.Emit("generation",
			"gen", g.Gen, "probes", report.Probes,
			"new_coverage", report.NewCoverage-covBefore,
			"violations", report.ViolationCount-violBefore,
			"corpus_size", corpus.Size())
	}
}

// Finish seals the report: final corpus size, shrinking of recorded
// violations, and the fuzz-end event. The returned report's timing fields
// are zero — schedulers own wall-clock measurement.
func (s *Session) Finish() (*Report, error) {
	report := s.report
	report.CorpusSize = s.corpus.Size()
	if s.f.Shrink {
		opts := s.f.ShrinkOptions()
		opts.Obs = obs.From(s.f.Ctx)
		if err := adversary.ShrinkAll(report.Violations, opts); err != nil {
			return nil, err
		}
	}
	if s.fo.sink != nil {
		s.fo.sink.Emit("fuzz-end",
			"protocol", s.f.Protocol, "probes", report.Probes,
			"generations", report.Generations, "violations", report.ViolationCount,
			"first_violation_probe", report.FirstViolationProbe,
			"corpus_size", report.CorpusSize, "new_coverage", report.NewCoverage)
	}
	return report, nil
}

// SessionState is a session snapshot, everything needed to resume folding
// where a previous session stopped: the report so far (its ledger
// included, so the histograms carry on from the probes already folded),
// the generation counter and the corpus.
type SessionState struct {
	Report  *Report `json:"report"`
	NextGen int     `json:"next_gen"`
	Corpus  *Corpus `json:"corpus"`
}

// State snapshots the session between generations. The snapshot shares
// structure with the live session — marshal it before the next Fold.
func (s *Session) State() *SessionState {
	return &SessionState{
		Report:  s.report,
		NextGen: s.nextGen,
		Corpus:  s.corpus,
	}
}

// ResumeSession reopens a session from a snapshot taken by State. The
// fuzzer must be configured identically to the original run (same
// protocol, sizes, seeds, budget); its Corpus field is replaced by the
// snapshot's. Generations folded after resuming continue the original
// derivation sequence, so the finished report and corpus are
// byte-identical to a run that never stopped.
func (f *Fuzzer) ResumeSession(st *SessionState) (*Session, error) {
	if st == nil || st.Report == nil || st.Corpus == nil {
		return nil, fmt.Errorf("fuzz: resume: incomplete session state")
	}
	f.Corpus = st.Corpus
	if err := f.validate(); err != nil {
		return nil, err
	}
	s := f.newSession()
	s.report = st.Report
	s.report.Workers = runner.Workers(f.Parallelism)
	s.nextGen = st.NextGen
	return s, nil
}
