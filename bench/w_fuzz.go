package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog"
	"expensive/internal/catalog/matrix"
)

// fuzzBudget is the probe budget of one fuzz round. The corpus grows to
// roughly half the budget, so working-set growth is part of the load.
const fuzzBudget = 12288

// floodsetFuzzer is the fuzz-floodset job: the hunt-omission target under
// the coverage-guided fuzzer, seeded by the same strategy.
func floodsetFuzzer(seed int64, budget, parallelism int) (*fuzz.Fuzzer, error) {
	spec, err := catalog.Get("floodset")
	if err != nil {
		return nil, err
	}
	f, err := matrix.FuzzerFor(spec, catalog.DefaultParams(8, 2), adversary.RandomOmission(matrix.DefaultBias), budget)
	if err != nil {
		return nil, err
	}
	f.FuzzSeed = seedBase(seed)
	f.Parallelism = parallelism
	return f, nil
}

// runFuzzer runs a fresh fuzzer (a used one would resume from its grown
// corpus) and returns the report, the corpus and the bench's wall time.
func runFuzzer(seed int64, budget, parallelism int) (*fuzz.Report, *fuzz.Corpus, time.Duration, error) {
	f, err := floodsetFuzzer(seed, budget, parallelism)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	rep, err := f.Run()
	return rep, f.Corpus, time.Since(t0), err
}

func fuzzFloodset() workload {
	return workload{
		name: "fuzz-floodset",
		op:   "probe",
		setup: func(seed int64, div int) (*prepared, error) {
			budget := scaled(fuzzBudget, div, 128)
			if _, _, _, err := runFuzzer(seed, scaled(budget, 8, 64), 1); err != nil {
				return nil, err
			}
			var digest string
			return &prepared{
				round: func() (roundOut, error) {
					rep, corpus, wall, err := runFuzzer(seed, budget, 1)
					if err != nil {
						return roundOut{}, err
					}
					out := roundOut{Attempted: budget, Work: float64(rep.Probes), Rate: float64(rep.Probes) / wall.Seconds()}
					if rep.Probes != budget || corpus.Size() != rep.CorpusSize {
						out.Failed = budget
					}
					out.Digest, err = digestJSON(rep, corpus)
					digest = out.Digest
					return out, err
				},
				// Report and corpus must be byte-identical on the full-width
				// probe pool.
				verify: func() error {
					rep, corpus, _, err := runFuzzer(seed, budget, 0)
					if err != nil {
						return err
					}
					wide, err := digestJSON(rep, corpus)
					if err != nil {
						return err
					}
					if wide != digest {
						return fmt.Errorf("report+corpus at full width (%s) differ from the serial run (%s)", wide, digest)
					}
					return nil
				},
			}, nil
		},
		trace: traceFuzz,
	}
}

// traceFuzz drives the fuzz.Session protocol itself — NextGeneration,
// every Probe, Fold, Finish — with a span per call.
func traceFuzz(seed int64, div int, tr *tracer, m *metricSet) (int, int, error) {
	budget := scaled(fuzzBudget, div, 128)
	f, err := floodsetFuzzer(seed, budget, 1)
	if err != nil {
		return 0, 0, err
	}
	root := tr.begin("bench.fuzz_loop")
	s, err := f.NewSession()
	if err != nil {
		return 0, 0, err
	}
	for {
		sp := tr.begin("fuzz.next_generation")
		g := s.NextGeneration()
		tr.end(sp)
		if g == nil {
			break
		}
		results := make([]fuzz.Outcome, g.Count)
		for i := range results {
			sp = tr.begin("fuzz.probe")
			results[i], err = s.Probe(g, i)
			tr.end(sp)
			if err != nil {
				return budget, budget, err
			}
		}
		sp = tr.begin("fuzz.fold")
		s.Fold(g, results)
		tr.end(sp)
	}
	sp := tr.begin("fuzz.finish")
	rep, err := s.Finish()
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return budget, budget, err
	}

	// The engine's own loop must reach the same report and corpus.
	ref, refCorpus, _, err := runFuzzer(seed, budget, 1)
	if err != nil {
		return budget, budget, err
	}
	mine, err := digestJSON(rep, f.Corpus)
	if err != nil {
		return budget, budget, err
	}
	theirs, err := digestJSON(ref, refCorpus)
	if err != nil {
		return budget, budget, err
	}
	failed := 0
	if mine != theirs {
		failed = budget
	}

	per := func(name string) float64 {
		return float64(tr.stat(name).Total.Nanoseconds()) / 1e3 / float64(rep.Probes)
	}
	m.set("fuzz.derive_us_per_probe", per("fuzz.next_generation"))
	m.set("fuzz.probe_us_per_probe", per("fuzz.probe"))
	m.set("fuzz.fold_us_per_probe", per("fuzz.fold"))
	m.set("fuzz.generations", float64(rep.Generations))
	m.set("fuzz.corpus_size", float64(rep.CorpusSize))
	m.set("fuzz.new_coverage_ratio", float64(rep.NewCoverage)/float64(rep.Probes))

	// Corpus persistence, in the bench's own output directory.
	dir, err := os.MkdirTemp(tr.outDir, "corpus-")
	if err != nil {
		return budget, budget, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "corpus.json")
	sp = tr.begin("fuzz.corpus_save")
	err = f.Corpus.Save(path)
	m.set("fuzz.corpus_save_ms", float64(tr.end(sp).Nanoseconds())/1e6)
	if err != nil {
		return budget, budget, err
	}
	sp = tr.begin("fuzz.corpus_load")
	loaded, err := fuzz.LoadCorpus(path)
	m.set("fuzz.corpus_load_ms", float64(tr.end(sp).Nanoseconds())/1e6)
	if err != nil {
		return budget, budget, err
	}
	if loaded.Size() != f.Corpus.Size() {
		failed = budget
	}

	// The recorded adaptive-hunt figure: probes to the first FloodSet split
	// at t = n-1 (an exact count; it moves only when the stream changes).
	first, err := probesToFirstViolation()
	if err != nil {
		return budget, budget, err
	}
	m.set("fuzz.probes_to_first_violation", float64(first))
	return budget, failed, nil
}

// probesToFirstViolation fuzzes FloodSet at n=4 t=3 from
// random-send-omission seeds with a 2048-probe budget and returns the
// index of the first violating probe. The fuzz seed is the default 0
// whatever --seed says: this is the repository's recorded figure (1382),
// pinned so that a stream change shows as a changed count.
func probesToFirstViolation() (int, error) {
	spec, err := catalog.Get("floodset")
	if err != nil {
		return 0, err
	}
	f, err := matrix.FuzzerFor(spec, catalog.DefaultParams(4, 3), adversary.RandomSendOmission(matrix.DefaultBias), 2048)
	if err != nil {
		return 0, err
	}
	f.StopOnViolation = true
	f.Parallelism = 1
	rep, err := f.Run()
	if err != nil {
		return 0, err
	}
	return rep.FirstViolationProbe, nil
}
