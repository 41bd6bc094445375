package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/floodset"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// floodsetFuzzer is the canonical hunt target: FloodSet at t = n-1,
// seeded with the blind random-send-omission strategy the fuzzer is
// benchmarked against. The split it must find is the E10 withholding
// attack, which blind random sweeps essentially never produce at n >= 4.
func floodsetFuzzer(n, t, budget, parallelism int) *Fuzzer {
	return &Fuzzer{
		Target: adversary.Target{
			Protocol: "floodset",
			Factory:  floodset.New(floodset.Config{N: n, T: t}),
			Rounds:   floodset.RoundBound(t),
			N:        n,
			T:        t,
			Validity: validity.WeakCheck,
			New: func(n2, t2 int) (sim.Factory, int, error) {
				return floodset.New(floodset.Config{N: n2, T: t2}), floodset.RoundBound(t2), nil
			},
		},
		Seed:        adversary.RandomSendOmission(40),
		Budget:      budget,
		Parallelism: parallelism,
	}
}

// TestFuzzerFindsAndShrinksFloodSetSplit is the subsystem's acceptance
// path: coverage-guided mutation reaches the FloodSet agreement split at
// t = n-1 within budget, the violation shrinks to a minimal plan, and the
// certificate survives independent re-checking — while the blind sweep of
// the same seed strategy over the same budget finds nothing (`bash
// bench/run.sh --workload fuzz-floodset --trace 1` records the fuzzer's
// probes-to-first-violation).
func TestFuzzerFindsAndShrinksFloodSetSplit(t *testing.T) {
	f := floodsetFuzzer(4, 3, 2048, 0)
	f.Shrink = true
	f.StopOnViolation = true
	f.MaxViolations = 3
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Broken() {
		t.Fatalf("no violation within %d probes (corpus %d)", rep.Probes, rep.CorpusSize)
	}
	if rep.FirstViolationProbe <= 0 || rep.FirstViolationProbe > rep.Probes {
		t.Fatalf("first violation probe %d outside 1..%d", rep.FirstViolationProbe, rep.Probes)
	}
	v := rep.Violations[0]
	if v.Kind != "agreement" {
		t.Fatalf("expected an agreement split, got %v", v)
	}
	if v.Plan == nil {
		t.Fatal("violation carries no replayable plan")
	}
	if v.Shrunk == nil {
		t.Fatal("violation was not shrunk")
	}
	// The shrinker is 1-minimal, not globally minimal: a fuzz-found split
	// may genuinely need two cooperating withholders. It must never grow.
	if v.Shrunk.FaultyAfter > v.Shrunk.FaultyBefore || v.Shrunk.OmitAfter > v.Shrunk.OmitBefore {
		t.Errorf("shrink grew the plan: %v", v.Shrunk)
	}
	if err := adversary.Recheck(v, f.ShrinkOptions()); err != nil {
		t.Fatalf("certificate failed independent recheck: %v", err)
	}
}

// TestFuzzerParallelDeterminism is the repo-wide invariant applied to the
// fuzzer: the JSON encodings of both the report and the grown corpus are
// byte-identical at parallelism 1 and 8 — generation batching makes
// corpus growth a pure function of the fuzzer's inputs.
func TestFuzzerParallelDeterminism(t *testing.T) {
	encode := func(parallelism int) (report, corpus []byte) {
		f := floodsetFuzzer(4, 3, 768, parallelism)
		f.Corpus = NewCorpus("floodset", 4, 3)
		rep, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		report, err = json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		corpus, err = json.MarshalIndent(f.Corpus, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return report, corpus
	}
	serialRep, serialCorpus := encode(1)
	parallelRep, parallelCorpus := encode(8)
	if !bytes.Equal(serialRep, parallelRep) {
		t.Errorf("fuzz reports differ between parallelism levels:\nserial:\n%s\nparallel:\n%s", serialRep, parallelRep)
	}
	if !bytes.Equal(serialCorpus, parallelCorpus) {
		t.Error("fuzz corpora differ between parallelism levels")
	}
}

// TestFuzzerCorpusRoundTripAndResume pins the persistence path: a saved
// corpus reloads byte-identically, resumes a fuzzer without a seed
// strategy, and refuses targets it was not grown against.
func TestFuzzerCorpusRoundTripAndResume(t *testing.T) {
	f := floodsetFuzzer(4, 3, 128, 1)
	f.Corpus = NewCorpus("floodset", 4, 3)
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Corpus.Size() == 0 {
		t.Fatal("run grew no corpus")
	}

	path := filepath.Join(t.TempDir(), "corpus.json")
	if err := f.Corpus.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(f.Corpus)
	got, _ := json.Marshal(loaded)
	if !bytes.Equal(want, got) {
		t.Fatal("corpus did not round-trip through Save/Load")
	}

	// Resume: no seed strategy, population from the loaded corpus.
	resumed := floodsetFuzzer(4, 3, 64, 1)
	resumed.Seed = adversary.Strategy{}
	resumed.Corpus = loaded
	rep, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorpusLoaded != loaded.Size()-rep.NewCoverage {
		t.Errorf("CorpusLoaded = %d, want %d (final %d - new %d)",
			rep.CorpusLoaded, loaded.Size()-rep.NewCoverage, loaded.Size(), rep.NewCoverage)
	}
	if rep.Probes != 64 {
		t.Errorf("resumed run executed %d probes, want 64", rep.Probes)
	}
	if rep.Generations == 0 {
		t.Error("resumed run processed no generations")
	}

	// A corpus grown against a different target is refused.
	foreign := floodsetFuzzer(5, 4, 64, 1)
	foreign.Corpus = loaded
	if _, err := foreign.Run(); err == nil {
		t.Error("expected a target-mismatch error for a foreign corpus")
	}

	// A corpus recorded under another stream version is refused, with an
	// error naming both versions. The saved file is re-encoded with the
	// field edited (or removed: a pre-versioning corpus reads as 1).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		field    any // nil removes stream_version
		recorded int // 0 = accepted
	}{
		{"missing", nil, 1},
		{"older", 1, 1},
		{"newer", adversary.StreamVersion + 1, adversary.StreamVersion + 1},
		{"current", adversary.StreamVersion, 0},
	} {
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if doc["stream_version"] != float64(adversary.StreamVersion) {
			t.Fatalf("saved corpus carries stream_version %v, want %d", doc["stream_version"], adversary.StreamVersion)
		}
		delete(doc, "stream_version")
		if tc.field != nil {
			doc["stream_version"] = tc.field
		}
		edited, _ := json.Marshal(doc)
		editedPath := filepath.Join(t.TempDir(), tc.name+".json")
		if err := os.WriteFile(editedPath, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		old, err := LoadCorpus(editedPath)
		if err != nil {
			t.Fatal(err)
		}
		stale := floodsetFuzzer(4, 3, 64, 1)
		stale.Corpus = old
		_, err = stale.Run()
		if tc.recorded == 0 {
			if err != nil {
				t.Errorf("%s: corpus of the current stream refused: %v", tc.name, err)
			}
			continue
		}
		for _, want := range []string{
			fmt.Sprintf("stream_version %d,", tc.recorded),
			fmt.Sprintf("stream_version %d:", adversary.StreamVersion),
		} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: resume error %v does not name %q", tc.name, err, want)
			}
		}
	}
}

// TestFuzzerValidation rejects malformed fuzzers.
func TestFuzzerValidation(t *testing.T) {
	cases := []func(f *Fuzzer){
		func(f *Fuzzer) { f.Factory = nil },
		func(f *Fuzzer) { f.Rounds = 0 },
		func(f *Fuzzer) { f.T = 0 },
		func(f *Fuzzer) { f.Budget = 0 },
		func(f *Fuzzer) { f.Seed = adversary.Strategy{} }, // no strategy, no corpus
	}
	for i, breakIt := range cases {
		f := floodsetFuzzer(4, 3, 64, 1)
		breakIt(f)
		if _, err := f.Run(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestCoverageTierIndependence pins the coverage hash across recording
// tiers: the lean probe and the full replay of one configuration must
// hash identically, or violating corpus entries would drift from their
// evidence replays.
func TestCoverageTierIndependence(t *testing.T) {
	n, tf := 5, 2
	factory := floodset.New(floodset.Config{N: n, T: tf})
	plan := adversary.ExplicitPlan{
		Faulty: []proc.ID{0, 2},
		SendOmit: []msg.Key{
			{Sender: 0, Receiver: 1, Round: 1},
			{Sender: 0, Receiver: 3, Round: 2},
			{Sender: 2, Receiver: 4, Round: 1},
		},
		ReceiveOmit: []msg.Key{{Sender: 1, Receiver: 2, Round: 2}},
	}
	proposals := []msg.Value{msg.Zero, msg.One, msg.One, msg.Zero, msg.One}
	env := adversary.Env{N: n, T: tf, Rounds: floodset.RoundBound(tf), Horizon: 5, Factory: factory}
	run := func(rec sim.Recording) uint64 {
		cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: 5, Recording: rec}
		e, err := sim.Run(cfg, factory, plan.Plan(env))
		if err != nil {
			t.Fatal(err)
		}
		return coverage(e)
	}
	if lean, full := run(sim.RecordDecisions), run(sim.RecordFull); lean != full {
		t.Fatalf("coverage hash differs between tiers: lean %x, full %x", lean, full)
	}
}

// TestMutatorInvariants hammers the operator table and checks that every
// candidate keeps the plan invariants the engine enforces — corrupted set
// within budget, omissions hanging off corrupted endpoints, canonical
// element order — and that the engine accepts the plan without a harness
// error.
func TestMutatorInvariants(t *testing.T) {
	n, tf, horizon := 5, 3, 6
	m := mutator{n: n, t: tf, horizon: horizon}
	corpus := NewCorpus("floodset", n, tf)
	corpus.add(Entry{
		Parent: -1,
		Op:     "seed",
		Plan: adversary.ExplicitPlan{
			Faulty:   []proc.ID{1},
			SendOmit: []msg.Key{{Sender: 1, Receiver: 0, Round: 1}},
		},
		Proposals: []msg.Value{msg.Zero, msg.One, msg.One, msg.Zero, msg.One},
	})
	factory := floodset.New(floodset.Config{N: n, T: tf})
	env := adversary.Env{N: n, T: tf, Rounds: floodset.RoundBound(tf), Horizon: horizon, Factory: factory}

	for i := 0; i < 600; i++ {
		r := adversary.NewStream(42, string(rune(i)))
		c := m.mutate(&r, corpus)
		p := &c.Plan
		if len(p.Faulty) > tf {
			t.Fatalf("op %s: %d faulty > t=%d", c.Op, len(p.Faulty), tf)
		}
		if !slices.IsSorted(p.Faulty) {
			t.Fatalf("op %s: faulty set not sorted: %v", c.Op, p.Faulty)
		}
		fset := proc.NewSet(p.Faulty...)
		for _, k := range p.SendOmit {
			if !fset.Contains(k.Sender) || k.Round < 1 || k.Round > horizon {
				t.Fatalf("op %s: invalid send-omit %v (faulty %v)", c.Op, k, p.Faulty)
			}
		}
		for _, k := range p.ReceiveOmit {
			if !fset.Contains(k.Receiver) || k.Round < 1 || k.Round > horizon {
				t.Fatalf("op %s: invalid receive-omit %v (faulty %v)", c.Op, k, p.Faulty)
			}
		}
		for _, e := range p.Byzantine {
			if !fset.Contains(e.ID) {
				t.Fatalf("op %s: byzantine entry for correct %s", c.Op, e.ID)
			}
		}
		if len(c.Proposals) != n {
			t.Fatalf("op %s: %d proposals, want %d", c.Op, len(c.Proposals), n)
		}
		// Every tenth candidate is actually executed: normalize must make
		// plans the engine never rejects.
		if i%10 == 0 {
			cfg := sim.Config{N: n, T: tf, Proposals: c.Proposals, MaxRounds: horizon, Recording: sim.RecordDecisions}
			if _, err := sim.Run(cfg, factory, c.Plan.Plan(env)); err != nil {
				t.Fatalf("op %s: engine rejected normalized plan: %v", c.Op, err)
			}
		}
		// Feed some candidates back so later mutations see mixed lineage.
		if i%7 == 0 {
			corpus.add(Entry{Parent: c.Parent, Op: c.Op, Plan: c.Plan, Proposals: c.Proposals})
		}
	}
}

// TestFuzzerCorpusConcurrencyRace drives several parallel fuzzers at once
// — shared engine scratch pool, per-fuzzer corpora, full worker fan-out —
// so `go test -race` patrols the corpus handling and the generation
// barrier for data races (the CI bench job runs exactly this test under
// -race).
func TestFuzzerCorpusConcurrencyRace(t *testing.T) {
	var wg sync.WaitGroup
	reports := make([]*Report, 4)
	errs := make([]error, 4)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := floodsetFuzzer(4, 3, 256, 4)
			f.Corpus = NewCorpus("floodset", 4, 3)
			reports[i], errs[i] = f.Run()
		}(i)
	}
	wg.Wait()
	want, _ := json.Marshal(reports[0])
	for i := 1; i < len(reports); i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		got, _ := json.Marshal(reports[i])
		if !bytes.Equal(want, got) {
			t.Errorf("concurrent fuzzer %d diverged from fuzzer 0", i)
		}
	}
}
