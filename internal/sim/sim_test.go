package sim_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// floodMachine broadcasts its proposal for `rounds` rounds, then decides
// the lexicographically smallest value it has seen.
type floodMachine struct {
	n, rounds int
	id        proc.ID
	min       msg.Value
	decided   bool
	done      bool
}

func floodFactory(n, rounds int) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &floodMachine{n: n, rounds: rounds, id: id, min: proposal}
	}
}

func (m *floodMachine) broadcast() []sim.Outgoing {
	var out []sim.Outgoing
	for p := proc.ID(0); p < proc.ID(m.n); p++ {
		if p != m.id {
			out = append(out, sim.Outgoing{To: p, Payload: string(m.min)})
		}
	}
	return out
}

func (m *floodMachine) Init() []sim.Outgoing { return m.broadcast() }

func (m *floodMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	for _, rm := range received {
		if v := msg.Value(rm.Payload); v < m.min {
			m.min = v
		}
	}
	if round >= m.rounds {
		m.decided, m.done = true, true
		return nil
	}
	return m.broadcast()
}

func (m *floodMachine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.min, true
}

func (m *floodMachine) Quiescent() bool { return m.done }

// badMachine misbehaves structurally on demand.
type badMachine struct {
	mode string
	id   proc.ID
}

func (m *badMachine) Init() []sim.Outgoing {
	to := proc.ID(0)
	if m.id == 0 {
		to = 1
	}
	switch m.mode {
	case "self":
		return []sim.Outgoing{{To: m.id, Payload: "x"}}
	case "dup":
		return []sim.Outgoing{{To: to, Payload: "a"}, {To: to, Payload: "b"}}
	case "range":
		return []sim.Outgoing{{To: 99, Payload: "x"}}
	case "no process":
		return []sim.Outgoing{{To: -1, Payload: "x"}}
	case "last id":
		return []sim.Outgoing{{To: math.MaxInt, Payload: "x"}}
	case "everyone and direct":
		return []sim.Outgoing{{To: sim.Everyone, Payload: "a"}, {To: to, Payload: "b"}}
	case "direct and everyone":
		return []sim.Outgoing{{To: to, Payload: "b"}, {To: sim.Everyone, Payload: "a"}}
	case "everyone twice":
		return []sim.Outgoing{{To: sim.Everyone, Payload: "a"}, {To: sim.Everyone, Payload: "a"}}
	}
	return nil
}

func (m *badMachine) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *badMachine) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *badMachine) Quiescent() bool                        { return true }

func proposals(vals ...string) []msg.Value {
	out := make([]msg.Value, len(vals))
	for i, v := range vals {
		out[i] = msg.Value(v)
	}
	return out
}

func TestRunFloodNoFaults(t *testing.T) {
	cfg := sim.Config{N: 4, T: 1, Proposals: proposals("3", "1", "2", "9"), MaxRounds: 10}
	e, err := sim.Run(cfg, floodFactory(4, 2), sim.NoFaults{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, err := e.CommonDecision(proc.Universe(4))
	if err != nil {
		t.Fatalf("CommonDecision: %v", err)
	}
	if d != "1" {
		t.Errorf("decision = %q, want 1", d)
	}
	if !e.Quiesced {
		t.Error("expected early quiescent stop")
	}
	if e.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", e.Rounds)
	}
	// 4 processes × 3 peers × 2 rounds.
	if got := e.CorrectMessages(); got != 24 {
		t.Errorf("CorrectMessages = %d, want 24", got)
	}
	if err := omission.Validate(e); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	if err := sim.Conforms(e, floodFactory(4, 2), proc.Set{}); err != nil {
		t.Errorf("Conforms: %v", err)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := sim.Config{N: 5, T: 1, Proposals: proposals("5", "3", "4", "1", "2"), MaxRounds: 8}
	e1, err := sim.Run(cfg, floodFactory(5, 3), sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := sim.Run(cfg, floodFactory(5, 3), sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1.Behaviors, e2.Behaviors) {
		t.Error("two identical runs produced different traces")
	}
}

func TestConfigValidation(t *testing.T) {
	base := sim.Config{N: 3, T: 1, Proposals: proposals("0", "0", "0"), MaxRounds: 5}
	cases := []struct {
		name string
		mut  func(c sim.Config) sim.Config
	}{
		{"n too small", func(c sim.Config) sim.Config { c.N = 1; return c }},
		{"t negative", func(c sim.Config) sim.Config { c.T = -1; return c }},
		{"t >= n", func(c sim.Config) sim.Config { c.T = 3; return c }},
		{"proposal count", func(c sim.Config) sim.Config { c.Proposals = proposals("0"); return c }},
		{"max rounds", func(c sim.Config) sim.Config { c.MaxRounds = 0; return c }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := sim.Run(tc.mut(base), floodFactory(3, 1), sim.NoFaults{}); err == nil {
				t.Error("expected config error")
			}
		})
	}
}

// TestStructuralMisbehaviorRejected holds both tiers to the same error, byte
// for byte, for each structural misuse. An entry to Everyone is n - 1
// messages to the checks: with a direct entry, or a second one, beside it
// it sends twice to a peer; and -1 is a process outside Π, not Everyone.
func TestStructuralMisbehaviorRejected(t *testing.T) {
	for mode, want := range map[string]string{
		"self":                "round 1: p0 sent to itself",
		"dup":                 "round 1: p0 sent twice to p1",
		"range":               "round 1: p0 sent to unknown process 99",
		"no process":          "round 1: p0 sent to unknown process -1",
		"last id":             "round 1: p0 sent to unknown process 9223372036854775807",
		"everyone and direct": "round 1: p0 sent twice to p1",
		"direct and everyone": "round 1: p0 sent twice to p1",
		"everyone twice":      "round 1: p0 sent twice to p1",
	} {
		t.Run(mode, func(t *testing.T) {
			factory := func(id proc.ID, _ msg.Value) sim.Machine {
				return &badMachine{mode: mode, id: id}
			}
			for _, rec := range []sim.Recording{sim.RecordFull, sim.RecordDecisions} {
				cfg := sim.Config{N: 3, T: 0, Proposals: proposals("0", "0", "0"), MaxRounds: 2, Recording: rec}
				if _, err := sim.Run(cfg, factory, sim.NoFaults{}); err == nil || err.Error() != want {
					t.Errorf("mode %s at %s: got error %v, want %q", mode, rec, err, want)
				}
			}
		})
	}
}

func TestOmissionPlanGuards(t *testing.T) {
	// A plan whose predicates touch correct processes must be rejected.
	plan := sim.OmissionPlan{
		F:      proc.NewSet(0),
		SendFn: func(m msg.Message) bool { return true },
	}
	cfg := sim.Config{N: 3, T: 1, Proposals: proposals("0", "1", "2"), MaxRounds: 3}
	e, err := sim.Run(cfg, floodFactory(3, 2), plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Only p0's sends are omitted (plan guards on F internally).
	if got := len(e.Behavior(0).AllSendOmitted()); got == 0 {
		t.Error("p0 send-omissions missing")
	}
	if got := len(e.Behavior(1).AllSendOmitted()); got != 0 {
		t.Error("correct p1 send-omitted")
	}
	if err := omission.Validate(e); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}

func TestFaultPlanTooManyFaulty(t *testing.T) {
	plan := sim.OmissionPlan{F: proc.NewSet(0, 1)}
	cfg := sim.Config{N: 3, T: 1, Proposals: proposals("0", "0", "0"), MaxRounds: 2}
	if _, err := sim.Run(cfg, floodFactory(3, 1), plan); err == nil {
		t.Error("expected error: plan corrupts more than t")
	}
}

func TestByzantinePlan(t *testing.T) {
	// p0 lies: it floods "0" although its proposal is "9".
	liar := &floodMachine{n: 3, rounds: 2, id: 0, min: "0"}
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: liar}}
	cfg := sim.Config{N: 3, T: 1, Proposals: proposals("9", "5", "7"), MaxRounds: 5}
	e, err := sim.Run(cfg, floodFactory(3, 2), plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, err := e.CommonDecision(proc.NewSet(1, 2))
	if err != nil {
		t.Fatalf("CommonDecision: %v", err)
	}
	if d != "0" {
		t.Errorf("correct processes decided %q, want the injected 0", d)
	}
	// Byzantine machine for a process outside the faulty set is a harness bug.
	bad := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{}}
	if bad.Byzantine(1) != nil {
		t.Error("Byzantine(1) should be nil for empty plan")
	}
}

func TestDisableEarlyStop(t *testing.T) {
	for _, rec := range []sim.Recording{sim.RecordFull, sim.RecordDecisions} {
		cfg := sim.Config{N: 3, T: 0, Proposals: proposals("1", "2", "3"), MaxRounds: 6, DisableEarlyStop: true, Recording: rec}
		e, err := sim.Run(cfg, floodFactory(3, 2), sim.NoFaults{})
		if err != nil {
			t.Fatal(err)
		}
		if e.Rounds != 6 || e.Quiesced {
			t.Errorf("%s: Rounds = %d Quiesced = %v, want 6/false", rec, e.Rounds, e.Quiesced)
		}
	}
}

func TestExecutionAccessors(t *testing.T) {
	cfg := sim.Config{N: 3, T: 1, Proposals: proposals("2", "1", "3"), MaxRounds: 5}
	e, err := sim.Run(cfg, floodFactory(3, 2), sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Proposals(); !reflect.DeepEqual(got, proposals("2", "1", "3")) {
		t.Errorf("Proposals = %v", got)
	}
	if !e.Correct().Equal(proc.Universe(3)) {
		t.Errorf("Correct = %v", e.Correct())
	}
	if _, err := e.CommonDecision(proc.Set{}); err == nil {
		t.Error("empty group should error")
	}
	b := e.Behavior(1)
	if b.Frag(99).Round != 99 || len(b.Frag(99).Received) != 0 {
		t.Error("Frag beyond length should be empty")
	}
	if v, ok := b.FinalDecision(); !ok || v != "1" {
		t.Errorf("FinalDecision = %q/%v", v, ok)
	}
}

func TestConformsDetectsForgedTrace(t *testing.T) {
	cfg := sim.Config{N: 3, T: 1, Proposals: proposals("2", "1", "3"), MaxRounds: 5}
	e, err := sim.Run(cfg, floodFactory(3, 2), sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a recorded decision.
	frag := &e.Behavior(2).Fragments[len(e.Behavior(2).Fragments)-1]
	frag.Decision = "999"
	err = sim.Conforms(e, floodFactory(3, 2), proc.Set{})
	if err == nil || !strings.Contains(err.Error(), "decision") {
		t.Errorf("Conforms should reject tampered decision, got %v", err)
	}
	// Skip set suppresses the check.
	if err := sim.Conforms(e, floodFactory(3, 2), proc.NewSet(2)); err != nil {
		t.Errorf("Conforms with skip: %v", err)
	}
}

func TestCommonDecisionDisagreement(t *testing.T) {
	// Isolate p2 from round 1 in a 2-round flood: it never learns "1".
	group := proc.NewSet(2)
	plan := sim.OmissionPlan{
		F: group,
		ReceiveFn: func(m msg.Message) bool {
			return group.Contains(m.Receiver) && !group.Contains(m.Sender)
		},
	}
	cfg := sim.Config{N: 3, T: 1, Proposals: proposals("2", "1", "3"), MaxRounds: 5}
	e, err := sim.Run(cfg, floodFactory(3, 2), plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CommonDecision(proc.Universe(3)); err == nil {
		t.Error("expected disagreement across the isolated boundary")
	}
	if d, _ := e.Decision(2); d != "3" {
		t.Errorf("isolated process decided %q, want its own 3", d)
	}
}
