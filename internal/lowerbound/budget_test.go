package lowerbound_test

import (
	"testing"

	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/protocols/cheap"
	"expensive/internal/protocols/floodset"
	"expensive/internal/sim"
)

// TestFalsifyRunBudget pins how many simulator runs one serial
// falsification costs: every Table 1 probe runs once at the lean tier, and
// only a certificate, a Lemma 2 candidate or a merge input is re-run for
// its full trace, at most once. leader, star and gossip-k3 break on
// E_B(1)_0: three lean probes and one re-run for its Lemma 2 candidate.
// silent breaks in the round-1 merge: four lean probes, both inputs re-run
// and the merged run. The count is read around Falsify alone: Lifted runs
// the inner protocol itself.
func TestFalsifyRunBudget(t *testing.T) {
	const n, tf = 40, 16
	flood := lowerbound.Candidate{
		Name: "floodset",
		Build: func(n, t int) (sim.Factory, int, error) {
			return floodset.New(floodset.Config{N: n, T: t}), floodset.RoundBound(t), nil
		},
		Lift: lowerbound.Lift{V0: msg.Zero, V1: msg.One},
	}
	_, lifted, floodRounds, err := flood.Lifted(17, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		factory sim.Factory
		rounds  int
		n, t    int
		want    int64
	}{
		{"leader", cheap.Leader(n), cheap.LeaderRounds, n, tf, 4},
		{"star", cheap.Star(n), cheap.StarRounds, n, tf, 4},
		{"gossip-k3", cheap.Gossip(n, 3), cheap.GossipRounds, n, tf, 4},
		{"silent", cheap.Silent(), cheap.SilentRounds, n, tf, 7},
		{"floodset", lifted, floodRounds, 17, 8, 7},
	} {
		before := sim.Runs()
		if _, err := lowerbound.Falsify(c.name, c.factory, c.rounds, c.n, c.t, lowerbound.Options{Parallelism: 1}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sim.Runs() - before; got != c.want {
			t.Errorf("%s at (%d,%d): %d simulator runs, want %d", c.name, c.n, c.t, got, c.want)
		}
	}
}
