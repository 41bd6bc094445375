package sim_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// everyoneMachine says its name to Everyone in round 1 through
// sim.Broadcast and decides in round 1.
type everyoneMachine struct {
	sim.DecideOnce
	id  proc.ID
	out sim.Broadcast
}

func everyoneFactory(id proc.ID, _ msg.Value) sim.Machine { return &everyoneMachine{id: id} }

func (m *everyoneMachine) Init() []sim.Outgoing { return m.out.Send(m.id.String()) }

func (m *everyoneMachine) Step(int, []msg.Message) []sim.Outgoing {
	m.Decide(msg.Zero)
	return nil
}

// addressed maps recorded messages back to the entries that name them.
func addressed(ms []msg.Message) []sim.Outgoing {
	var out []sim.Outgoing
	for _, m := range ms {
		out = append(out, sim.Outgoing{To: m.Receiver, Payload: m.Payload})
	}
	return out
}

// TestEngineExpandsEveryoneLikeExpand pins the engine's expansion of an
// entry to Everyone, and sim.Expand's, to Π written out: at every n up to
// 7, with each process in turn corrupted under a plan that omits all it
// is asked about, every process's round-1 record — sent, or send-omitted
// for the corrupted one — lists the receivers Expand lists, and those are
// every process but the sender in ID order, each with the payload. The
// plan is asked once per expanded message, and the lean tier counts them.
func TestEngineExpandsEveryoneLikeExpand(t *testing.T) {
	for n := 2; n <= 7; n++ {
		for _, rec := range []sim.Recording{sim.RecordFull, sim.RecordDecisions} {
			cfg := sim.Config{N: n, T: 1, Proposals: msg.Uniform(n, msg.Zero), MaxRounds: 2, Recording: rec}
			for bad := proc.ID(0); bad < proc.ID(n); bad++ {
				var sends, recvs []msg.Message
				e, err := sim.Run(cfg, everyoneFactory, sim.NosyPlan{F: proc.NewSet(bad), Sends: &sends, Recvs: &recvs})
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, rec, err)
				}
				if len(sends) != n-1 || len(recvs) != n-1 {
					t.Errorf("n=%d %s F={%s}: plan asked %d send and %d receive questions, want %d of each", n, rec, bad, len(sends), len(recvs), n-1)
				}
				for self := proc.ID(0); self < proc.ID(n); self++ {
					var written []sim.Outgoing
					for p := proc.ID(0); p < proc.ID(n); p++ {
						if p != self {
							written = append(written, sim.Outgoing{To: p, Payload: self.String()})
						}
					}
					if got := sim.Expand(nil, everyoneFactory(self, msg.Zero).Init(), n, self); !reflect.DeepEqual(got, written) {
						t.Fatalf("n=%d: Expand of %s's broadcast is %v, want %v", n, self, got, written)
					}
					b := e.Behavior(self)
					sent, omitted, _, _ := b.Counts(1)
					if sent+omitted != n-1 {
						t.Errorf("n=%d %s F={%s}: %s counts %d sent and %d send-omitted, want %d in all", n, rec, bad, self, sent, omitted, n-1)
					}
					if rec == sim.RecordDecisions {
						continue
					}
					f := b.Frag(1)
					if got := addressed(append(slices.Clone(f.Sent), f.SendOmitted...)); !reflect.DeepEqual(got, written) {
						t.Errorf("n=%d F={%s}: the engine expands %s's broadcast to %v, want %v", n, bad, self, got, written)
					}
				}
			}
		}
	}
}

// TestConformsCatchesBroadcastPayload tampers with one recorded message of
// a broadcast. Conforms compares the machine's Everyone entry expanded per
// peer, so a payload the machine did not send is caught, and so is a
// message the trace lacks: the count it compares is n - 1, not one entry.
func TestConformsCatchesBroadcastPayload(t *testing.T) {
	const n = 4
	cfg := sim.Config{N: n, T: 1, Proposals: msg.Uniform(n, msg.Zero), MaxRounds: 3}
	for _, tc := range []struct {
		name   string
		tamper func(sent []msg.Message) []msg.Message
		want   string
	}{
		{"payload", func(sent []msg.Message) []msg.Message { sent[2].Payload = "forged"; return sent }, "p1 round 1: payload to p3 differs between machine and trace"},
		{"missing", func(sent []msg.Message) []msg.Message { return sent[:2] }, "p1 round 1: machine emits 3 messages, trace records 2"},
	} {
		e, err := sim.Run(cfg, everyoneFactory, sim.NoFaults{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Conforms(e, everyoneFactory, proc.Set{}); err != nil {
			t.Fatalf("untouched trace: %v", err)
		}
		f := &e.Behavior(1).Fragments[0]
		if len(f.Sent) != n-1 {
			t.Fatalf("p1 sent %d messages in round 1, want %d", len(f.Sent), n-1)
		}
		f.Sent = tc.tamper(slices.Clone(f.Sent))
		if err := sim.Conforms(e, everyoneFactory, proc.Set{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Conforms = %v, want %q", tc.name, err, tc.want)
		}
	}
}
