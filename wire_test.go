package expensive_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	"expensive/internal/catalog/matrix"
	"expensive/internal/msg"
	"expensive/internal/sim"
)

// wireProtocols are the protocols that run on the interactive-consistency
// substrates (internal/protocols/eig, mux, dolevstrong).
var wireProtocols = []string{
	"eig", "weak-eig", "ic", "weak-ic", "external", "dolev-strong", "derived-strong", "derived-weak",
}

// wireSeeds is the seed range every pinned cell folds.
const wireSeeds = 8

// wireStrategies are the adversaries of the pin: none, the randomized
// omission adversary, and the three Byzantine machine kinds (plain bits,
// honest-looking payloads on two faces, deliberate garbage).
func wireStrategies() []adversary.Named {
	return []adversary.Named{
		{ID: "none", Strategy: adversary.Strategy{Name: "none", Build: func(int64, adversary.Env) sim.FaultPlan { return sim.NoFaults{} }}},
		{ID: "random-omission", Strategy: adversary.RandomOmission(matrix.DefaultBias)},
		{ID: "equivocate", Strategy: adversary.Equivocate()},
		{ID: "two-faced", Strategy: adversary.TwoFaced()},
		{ID: "chaos", Strategy: adversary.Chaos()},
	}
}

// wireDigest is the SHA-256 of the full-tier traces of seeds 0..wireSeeds-1:
// per round and process, every message sent, send-omitted, received and
// receive-omitted — (round, sender, receiver, payload) — and the decision.
func wireDigest(t *testing.T, spec catalog.Spec, size matrix.Size, strat adversary.Strategy) string {
	t.Helper()
	factory, rounds, err := spec.Build(catalog.DefaultParams(size.N, size.T))
	if err != nil {
		t.Fatal(err)
	}
	env := adversary.Env{N: size.N, T: size.T, Rounds: rounds, Horizon: sim.Horizon(rounds), Factory: factory}
	h := sha256.New()
	list := func(tag string, ms []msg.Message) {
		for _, m := range ms {
			fmt.Fprintf(h, "%s %d %d %d %q\n", tag, m.Round, m.Sender, m.Receiver, m.Payload)
		}
	}
	for seed := int64(0); seed < wireSeeds; seed++ {
		cfg := sim.Config{N: env.N, T: env.T, Proposals: strat.ProposalsFor(seed, env), MaxRounds: env.Horizon}
		e, err := sim.Run(cfg, factory, strat.Build(seed, env))
		if err != nil {
			t.Fatalf("%s n=%d t=%d %s seed %d: %v", spec.ID, size.N, size.T, strat.Name, seed, err)
		}
		fmt.Fprintf(h, "seed %d rounds %d\n", seed, e.Rounds)
		for _, b := range e.Behaviors {
			for _, f := range b.Fragments {
				list("s", f.Sent)
				list("so", f.SendOmitted)
				list("r", f.Received)
				list("ro", f.ReceiveOmitted)
				fmt.Fprintf(h, "d %d %d %t %q\n", f.Round, b.ID, f.Decided, f.Decision)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestWirePinned pins every payload byte the interactive-consistency
// substrates put on the wire — report digests see message counts and
// decisions, not payloads. testdata/wire/<protocol>.sha256 was written by
// the implementation that preceded the direct encoders; a PR that edits a
// protocol must pass this test with those files unedited. Only a
// deliberate wire-format change (a stream_version-class decision)
// replaces them with the content the failure prints.
func TestWirePinned(t *testing.T) {
	for _, id := range wireProtocols {
		spec, err := catalog.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, size := range matrix.DefaultSizes() {
			for _, strat := range wireStrategies() {
				digest := "unsupported"
				if spec.SupportedAt(size.N, size.T) {
					digest = wireDigest(t, spec, size, strat.Strategy)
				}
				fmt.Fprintf(&got, "%s  n=%d t=%d %s\n", digest, size.N, size.T, strat.ID)
			}
		}
		checkGolden(t, "wire/"+id+".sha256", []byte(got.String()))
	}
}
