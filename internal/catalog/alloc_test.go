package catalog_test

import (
	"testing"

	"expensive/internal/catalog"
	"expensive/internal/msg"
	"expensive/internal/sim"
)

// TestSubstrateAllocations holds the interactive-consistency substrates
// and phase-king to allocation counts that repeat exactly, as
// TestLeanProbeAllocations (internal/adversary) holds FloodSet: one lean
// fault-free run at t = 2 (n = 8; n = 9 where the protocol needs n > 4t),
// machines built and run to the decision. The reflective implementations
// read 42 396 (eig), 42 468 (weak-eig), 3 394 (ic) and 139 (dolev-strong);
// phase-king read 49 while every broadcast made its own slice and every
// exchange round a map, and reads 27 with one lent slice per machine. The
// same runs hold the closed-form message counts (faultFreeMessages) at
// these sizes.
func TestSubstrateAllocations(t *testing.T) {
	const tf = 2
	for _, tc := range []struct {
		id     string
		n      int
		below  float64
		lowest bool // hold the lowest of the 20 runs, not their mean
	}{
		{"eig", 8, 400, false},
		{"weak-eig", 8, 500, false},
		{"ic", 8, 900, false},
		{"dolev-strong", 8, 137, false}, // no higher than before
		{"phase-king", 9, 40, true},
		{"weak-phase-king", 9, 40, true},
	} {
		n := tc.n
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
		// higher, still under the substrates' bounds. Phase-king's bound
		// sits 13 above its count and a fresh scratch costs about 60, so
		// under -race its mean reads 29 to 50: those two rows hold the
		// lowest of 20 single runs, which is 27 either way.
		allocs := testing.AllocsPerRun(20, run)
		if tc.lowest {
			for i := 0; i < 20; i++ {
				allocs = min(allocs, testing.AllocsPerRun(1, run))
			}
		}
		t.Logf("%s: %.0f allocations per lean fault-free run", tc.id, allocs)
		if allocs >= tc.below {
			t.Errorf("%s: lean fault-free run at n=%d t=%d allocates %.0f times, want < %.0f", tc.id, n, tf, allocs, tc.below)
		}
	}
}
