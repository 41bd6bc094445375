package ic_test

import (
	"strconv"
	"testing"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/protocols/ic"
	"expensive/internal/sim"
)

// TestICAllocations holds a fault-free run of interactive consistency and
// one of a single Dolev-Strong broadcast, both at (16, 5), to what they
// allocate when a relay body costs no allocation of its own: the
// multiplexer appends every instance's body into its bundle, and an
// instance keeps its extracted values in a fixed array. A string and a
// buffer per body, a SignedData per chain checked and an extracted slice
// per instance read 1,335 and 103 allocations (1,425 and 103 under
// -race); appending reads 247 and 87 (307 and 87), and writing each
// process's decided vector directly, with no slice of decisions and no
// json.Marshal, 199 and 87 (247 and 87). One more allocation
// per instance — 256 in the IC run, 16 in the broadcast — crosses the
// bounds. Each count is the lowest of 20 runs, as TestFullTierAllocations
// takes it: the signature cache is warm after the first run, and the
// engine's scratch is a sync.Pool, which a race build drops at random.
func TestICAllocations(t *testing.T) {
	const n, tf = 16, 5
	scheme := sig.NewIdeal("ic-allocations")
	proposals := make([]msg.Value, n)
	for i := range proposals {
		proposals[i] = msg.Value(strconv.Itoa(i))
	}
	cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: ic.RoundBound(tf) + 1}
	for _, tc := range []struct {
		name    string
		factory sim.Factory
		below   float64
	}{
		{"ic", ic.New(ic.Config{N: n, T: tf, Scheme: scheme, Default: "⊥"}), 400},
		{"dolev-strong", dolevstrong.New(dolevstrong.Config{N: n, T: tf, Sender: 3, Scheme: scheme, Tag: "bb", Default: "⊥"}), 96},
	} {
		run := func() {
			if _, err := sim.Run(cfg, tc.factory, sim.NoFaults{}); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, run)
		for i := 0; i < 20; i++ {
			allocs = min(allocs, testing.AllocsPerRun(1, run))
		}
		t.Logf("%s at (%d, %d): %.0f allocations per fault-free run", tc.name, n, tf, allocs)
		if allocs >= tc.below {
			t.Errorf("%s at (%d, %d): a fault-free run allocates %.0f times, want < %.0f", tc.name, n, tf, allocs, tc.below)
		}
	}
}
