package sim_test

import (
	"reflect"
	"slices"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
)

// TestFullTierAllocations holds a fault-free phase-king run at RecordFull
// to one fragment array per run and one message arena per round. Growing
// each Sent and Received list one message at a time read 516 allocations
// at n = 16 and 9,512 at n = 64; the arenas read 45 and 165 to 168. Under
// -race sync.Pool drops the engine's scratch at random, so each size holds
// the lowest of 20 single runs, as TestSubstrateAllocations does.
func TestFullTierAllocations(t *testing.T) {
	for _, tc := range []struct {
		n     int
		below float64
	}{
		{16, 120},
		{64, 400},
	} {
		tf := (tc.n - 1) / 4
		proposals := make([]msg.Value, tc.n)
		for i := range proposals {
			proposals[i] = msg.Bit(i % 2)
		}
		cfg := sim.Config{N: tc.n, T: tf, Proposals: proposals, MaxRounds: sim.Horizon(phaseking.RoundBound(tf))}
		factory := phaseking.New(phaseking.Config{N: tc.n, T: tf})
		run := func() {
			if _, err := sim.Run(cfg, factory, sim.NoFaults{}); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, run)
		for i := 0; i < 20; i++ {
			allocs = min(allocs, testing.AllocsPerRun(1, run))
		}
		t.Logf("n=%d: %.0f allocations per full fault-free run", tc.n, allocs)
		if allocs >= tc.below {
			t.Errorf("n=%d: full fault-free phase-king run allocates %.0f times, want < %.0f", tc.n, allocs, tc.below)
		}
	}
}

// cloneFragments deep-copies every behavior's fragments, nil lists kept
// nil.
func cloneFragments(e *sim.Execution) [][]sim.Fragment {
	out := make([][]sim.Fragment, len(e.Behaviors))
	for i, b := range e.Behaviors {
		for _, f := range b.Fragments {
			f.Sent, f.SendOmitted = slices.Clone(f.Sent), slices.Clone(f.SendOmitted)
			f.Received, f.ReceiveOmitted = slices.Clone(f.Received), slices.Clone(f.ReceiveOmitted)
			out[i] = append(out[i], f)
		}
	}
	return out
}

// TestFullTraceListsOwnTheirCapacity runs a full trace with send and
// receive omissions and appends to each of its message lists, and to each
// behavior's fragment list, in turn. The lists share arenas, so every one
// must be capped at its length: an append that wrote into spare capacity
// would change the list or the behavior next to it. Every empty list must
// be nil.
func TestFullTraceListsOwnTheirCapacity(t *testing.T) {
	n, rounds := 5, 4
	plan := sim.OmissionPlan{
		F:         proc.NewSet(1, 3),
		SendFn:    func(m msg.Message) bool { return m.Receiver%2 == 0 },
		ReceiveFn: func(m msg.Message) bool { return m.Sender == 0 || m.Round == 2 },
	}
	cfg := sim.Config{N: n, T: 2, Proposals: []msg.Value{"b", "a", "c", "a", "b"}, MaxRounds: rounds, DisableEarlyStop: true}
	e, err := sim.Run(cfg, floodFactory(n, rounds), plan)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneFragments(e)
	stray := msg.Message{Sender: 4, Receiver: 4, Round: 99, Payload: "stray"}
	var omitted int
	for i, b := range e.Behaviors {
		if _ = append(b.Fragments, sim.Fragment{Round: 99}); !reflect.DeepEqual(cloneFragments(e), want) {
			t.Fatalf("appending to %s's fragments changed the trace", proc.ID(i))
		}
		for r := range b.Fragments {
			f := &b.Fragments[r]
			for k, list := range [][]msg.Message{f.Sent, f.SendOmitted, f.Received, f.ReceiveOmitted} {
				name := [...]string{"Sent", "SendOmitted", "Received", "ReceiveOmitted"}[k]
				if list != nil && len(list) == 0 {
					t.Fatalf("%s round %d: %s is empty but not nil", proc.ID(i), r+1, name)
				}
				if _ = append(list, stray); !reflect.DeepEqual(cloneFragments(e), want) {
					t.Fatalf("appending to %s's round %d %s changed the trace", proc.ID(i), r+1, name)
				}
			}
			omitted += len(f.SendOmitted) + len(f.ReceiveOmitted)
		}
	}
	if omitted == 0 {
		t.Fatal("the plan omitted nothing; the test needs omission lists")
	}
}
