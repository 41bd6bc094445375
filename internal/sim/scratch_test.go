package sim

import (
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
)

// shouter broadcasts its proposal every round and never decides.
type shouter struct {
	n   int
	id  proc.ID
	say string
}

func (m *shouter) Init() []Outgoing { return m.Step(0, nil) }

func (m *shouter) Step(int, []msg.Message) []Outgoing {
	out := make([]Outgoing, 0, m.n-1)
	for p := proc.ID(0); p < proc.ID(m.n); p++ {
		if p != m.id {
			out = append(out, Outgoing{To: p, Payload: m.say})
		}
	}
	return out
}

func (m *shouter) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (m *shouter) Quiescent() bool             { return false }

// TestScratchResetAcrossSizes runs n = 64 and then n = 4 on one scratch, at
// both tiers, and checks that nothing of either run survives the reset: no
// payload string anywhere in any inbox's backing array, no machine and no
// pending slice. reset clears only what a run of its size can have
// written, so this is the property that bound must keep.
func TestScratchResetAcrossSizes(t *testing.T) {
	for _, rec := range []Recording{RecordDecisions, RecordFull} {
		sc := new(scratch)
		for _, n := range []int{64, 4} {
			proposals := make([]msg.Value, n)
			for i := range proposals {
				proposals[i] = "payload"
			}
			factory := func(id proc.ID, v msg.Value) Machine { return &shouter{n: n, id: id, say: string(v)} }
			cfg := Config{N: n, T: 1, Proposals: proposals, MaxRounds: 3, Recording: rec}
			e, err := sc.run(cfg, factory, NoFaults{})
			if err != nil {
				t.Fatalf("%s n=%d: %v", rec, n, err)
			}
			if got, want := e.CorrectMessages(), 3*n*(n-1); got != want {
				t.Fatalf("%s n=%d: %d messages, want %d", rec, n, got, want)
			}
			if len(sc.inboxes) != 64 {
				t.Fatalf("%s n=%d: scratch holds %d inboxes, want the 64 the first run grew", rec, n, len(sc.inboxes))
			}
			for i, inbox := range sc.inboxes {
				if len(inbox) != 0 {
					t.Errorf("%s after n=%d: inbox %d has length %d", rec, n, i, len(inbox))
				}
				for j, m := range inbox[:cap(inbox)] {
					if m != (msg.Message{}) {
						t.Fatalf("%s after n=%d: inbox %d slot %d still holds %v", rec, n, i, j, m)
					}
				}
			}
			for i := range sc.pending {
				if sc.pending[i] != nil {
					t.Fatalf("%s after n=%d: pending %d still holds a machine's slice", rec, n, i)
				}
			}
			for i, m := range sc.machines {
				if m != nil {
					t.Fatalf("%s after n=%d: scratch still holds machine %d", rec, n, i)
				}
			}
		}
	}
}

// TestCorruptedMaskIsPerRun runs F = {p0} and then F = ∅ on one scratch, at
// both tiers, under a plan that would omit every message it is asked
// about. The second run must ask it nothing and deliver everything: the
// corrupted mask belongs to the run, not to the pooled scratch.
func TestCorruptedMaskIsPerRun(t *testing.T) {
	const n, rounds = 4, 3
	proposals := []msg.Value{"a", "b", "c", "d"}
	factory := func(id proc.ID, v msg.Value) Machine { return &shouter{n: n, id: id, say: string(v)} }
	for _, rec := range []Recording{RecordDecisions, RecordFull} {
		sc := new(scratch)
		cfg := Config{N: n, T: 1, Proposals: proposals, MaxRounds: rounds, Recording: rec}

		var sends, recvs []msg.Message
		e, err := sc.run(cfg, factory, NosyPlan{F: proc.NewSet(0), Sends: &sends, Recvs: &recvs})
		if err != nil {
			t.Fatalf("%s F={p0}: %v", rec, err)
		}
		// p0's n-1 sends and the n-1 messages addressed to it, every round.
		if want := rounds * (n - 1); len(sends) != want || len(recvs) != want {
			t.Fatalf("%s F={p0}: plan asked %d send and %d receive questions, want %d of each", rec, len(sends), len(recvs), want)
		}
		if got, want := e.CorrectMessages(), rounds*(n-1)*(n-1); got != want {
			t.Fatalf("%s F={p0}: %d correct messages, want %d", rec, got, want)
		}

		sends, recvs = nil, nil
		e, err = sc.run(cfg, factory, NosyPlan{Sends: &sends, Recvs: &recvs})
		if err != nil {
			t.Fatalf("%s F=∅: %v", rec, err)
		}
		if asked := len(sends) + len(recvs); asked != 0 {
			t.Fatalf("%s F=∅ after F={p0} on one scratch: plan asked %d questions, want 0", rec, asked)
		}
		if got, want := e.CorrectMessages(), rounds*n*(n-1); got != want {
			t.Fatalf("%s F=∅ after F={p0} on one scratch: %d messages, want %d", rec, got, want)
		}
	}
}
