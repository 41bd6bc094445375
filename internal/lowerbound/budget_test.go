package lowerbound_test

import (
	"testing"

	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/protocols/cheap"
	"expensive/internal/protocols/floodset"
	"expensive/internal/protocols/weak"
	"expensive/internal/sim"
)

// TestFalsifyRunBudget pins how many simulator runs one serial
// falsification costs when, as in every falsification here, A decides
// differently in E_B(1)_0 and E_C(1)_1 and the construction merges that
// pair: E_0 and E_1 run once each at the lean tier, the pair once each at
// the full tier, and no configuration runs twice. leader, star and
// gossip-k3 break on E_B(1)_0, whose own trace serves its Lemma 2
// candidate: three runs. silent breaks in the round-1 merge, and the
// lifted floodset and the sound weak-phase-king survive it: five runs, the
// fifth the merged execution. The count is read around Falsify alone:
// Lifted runs the inner protocol itself.
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
	king, kingRounds := weak.ViaPhaseKing(33, 8)
	for _, c := range []struct {
		name     string
		factory  sim.Factory
		rounds   int
		n, t     int
		want     int64
		survives bool
	}{
		{"leader", cheap.Leader(n), cheap.LeaderRounds, n, tf, 3, false},
		{"star", cheap.Star(n), cheap.StarRounds, n, tf, 3, false},
		{"gossip-k3", cheap.Gossip(n, 3), cheap.GossipRounds, n, tf, 3, false},
		{"silent", cheap.Silent(), cheap.SilentRounds, n, tf, 5, false},
		{"floodset", lifted, floodRounds, 17, 8, 5, true},
		{"weak-phase-king", king, kingRounds, 33, 8, 5, true},
	} {
		before := sim.Runs()
		rep, err := lowerbound.Falsify(c.name, c.factory, c.rounds, c.n, c.t, lowerbound.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Broken() == c.survives {
			t.Errorf("%s at (%d,%d): broken = %v", c.name, c.n, c.t, rep.Broken())
		}
		if got := sim.Runs() - before; got != c.want || got != int64(rep.Executions) {
			t.Errorf("%s at (%d,%d): %d simulator runs for %d executions, want %d of each", c.name, c.n, c.t, got, rep.Executions, c.want)
		}
	}
}
