package catalog_test

import (
	"testing"

	"expensive/internal/catalog"
	"expensive/internal/msg"
	"expensive/internal/sim"
)

// TestSubstrateAllocations holds the interactive-consistency substrates to
// allocation counts that repeat exactly, as TestLeanProbeAllocations
// (internal/adversary) holds FloodSet: one lean fault-free run at n = 8,
// t = 2, machines built and run to the decision. The reflective
// implementations read 42 396 (eig), 42 468 (weak-eig), 3 394 (ic) and
// 139 (dolev-strong). The same runs hold the closed-form message counts
// (faultFreeMessages) at this size.
func TestSubstrateAllocations(t *testing.T) {
	const n, tf = 8, 2
	for _, tc := range []struct {
		id    string
		below float64
	}{
		{"eig", 400},
		{"weak-eig", 500},
		{"ic", 900},
		{"dolev-strong", 137}, // no higher than before
	} {
		spec, err := catalog.Get(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		factory, rounds, err := spec.Build(catalog.DefaultParams(n, tf))
		if err != nil {
			t.Fatal(err)
		}
		proposals := make([]msg.Value, n)
		for i := range proposals {
			proposals[i] = msg.Bit(i % 2)
		}
		cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: sim.Horizon(rounds), Recording: sim.RecordDecisions}
		run := func() {
			e, err := sim.Run(cfg, factory, sim.NoFaults{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := e.CorrectMessages(), faultFreeMessages[tc.id](n, tf); got != want {
				t.Fatalf("%s: %d messages at n=%d t=%d, closed form %d", tc.id, got, n, tf, want)
			}
		}
		// The race detector's sync.Pool drops scratch at random and reads
		// higher, still under the bounds.
		allocs := testing.AllocsPerRun(20, run)
		t.Logf("%s: %.0f allocations per lean fault-free run", tc.id, allocs)
		if allocs >= tc.below {
			t.Errorf("%s: lean fault-free run at n=%d t=%d allocates %.0f times, want < %.0f", tc.id, n, tf, allocs, tc.below)
		}
	}
}
