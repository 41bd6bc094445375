package mux_test

import (
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/mux"
	"expensive/internal/sim"
)

// pingMachine broadcasts its tagged proposal in round 1 and decides the
// concatenation of everything it saw in round 1.
type pingMachine struct {
	tag      string
	proposal msg.Value
	seen     []string
	decided  bool
	decision msg.Value
}

func (m *pingMachine) InitBody(dst []byte) ([]byte, bool) {
	return append(dst, m.tag+":"+string(m.proposal)...), true
}

func (m *pingMachine) StepBody(round int, received []msg.Message, _ []*msg.Slot, dst []byte) ([]byte, bool) {
	for _, rm := range received {
		m.seen = append(m.seen, rm.Payload)
	}
	if round >= 1 {
		m.decided = true
		m.decision = msg.Value(strings.Join(m.seen, "|"))
	}
	return dst, false
}

func (m *pingMachine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.decision, true
}

func (m *pingMachine) Quiescent() bool { return m.decided }

func muxFactory(n int) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		subs := []mux.Broadcaster{
			&pingMachine{tag: "a", proposal: proposal},
			&pingMachine{tag: "b", proposal: proposal},
		}
		return mux.New(subs)
	}
}

func TestMuxRoutesPerInstance(t *testing.T) {
	cfg := sim.Config{N: 3, T: 0, Proposals: []msg.Value{"x", "y", "z"}, MaxRounds: 4}
	e, err := sim.Run(cfg, muxFactory(3), sim.NoFaults{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	d, ok := e.Decision(0)
	if !ok {
		t.Fatal("p0 undecided")
	}
	vec, err := msg.DecodeVector(d)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(vec) != 2 {
		t.Fatalf("vector len = %d", len(vec))
	}
	// Instance "a" saw only a-tagged payloads, in sender order.
	if vec[0] != "a:y|a:z" {
		t.Errorf("instance a decision = %q", vec[0])
	}
	if vec[1] != "b:y|b:z" {
		t.Errorf("instance b decision = %q", vec[1])
	}
	// Exactly one wire message per peer per round despite two instances.
	if got := len(e.Behavior(0).Frag(1).Sent); got != 2 {
		t.Errorf("p0 sent %d messages in round 1, want 2 (muxed)", got)
	}
}

// garbageSender emits unparseable bundles.
type garbageSender struct{ n int }

func (m *garbageSender) Init() []sim.Outgoing {
	var out []sim.Outgoing
	for p := 1; p < m.n; p++ {
		out = append(out, sim.Outgoing{To: proc.ID(p), Payload: "{{{not json"})
	}
	return out
}
func (m *garbageSender) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *garbageSender) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *garbageSender) Quiescent() bool                        { return true }

func TestMuxToleratesGarbage(t *testing.T) {
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: &garbageSender{n: 3}}}
	cfg := sim.Config{N: 3, T: 1, Proposals: []msg.Value{"x", "y", "z"}, MaxRounds: 4}
	e, err := sim.Run(cfg, muxFactory(3), plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, id := range []proc.ID{1, 2} {
		if _, ok := e.Decision(id); !ok {
			t.Errorf("%s undecided after garbage bundle", id)
		}
	}
}

// collisionSender emits bundles whose keys collide after decoding: "0"
// and "00" both parse to instance 0. A map-order iteration over the
// bundle would deliver the two payloads in random order; demux must
// iterate keys sorted so the inner inbox — and every downstream decision
// — is byte-identical across runs.
type collisionSender struct{ n int }

func (m *collisionSender) Init() []sim.Outgoing {
	var out []sim.Outgoing
	for p := 1; p < m.n; p++ {
		out = append(out, sim.Outgoing{To: proc.ID(p), Payload: `{"I":{"0":"one","00":"two"}}`})
	}
	return out
}
func (m *collisionSender) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *collisionSender) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *collisionSender) Quiescent() bool                        { return true }

func TestMuxCollidingBundleKeysDeterministic(t *testing.T) {
	run := func() msg.Value {
		plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: &collisionSender{n: 3}}}
		cfg := sim.Config{N: 3, T: 1, Proposals: []msg.Value{"x", "y", "z"}, MaxRounds: 4}
		e, err := sim.Run(cfg, muxFactory(3), plan)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		d, ok := e.Decision(1)
		if !ok {
			t.Fatal("p1 undecided")
		}
		return d
	}
	first := run()
	// Key "0" sorts before "00", so instance 0 hears "one" before "two".
	vec, err := msg.DecodeVector(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !strings.Contains(string(vec[0]), "one|two") {
		t.Errorf("instance 0 decision = %q, want colliding payloads in sorted key order", vec[0])
	}
	for i := 0; i < 20; i++ {
		if d := run(); d != first {
			t.Fatalf("decision changed across runs: %q vs %q — bundle demux is map-order dependent", d, first)
		}
	}
}
