package gradecast_test

import (
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/gradecast"
	"expensive/internal/sim"
)

func runGC(t *testing.T, cfg gradecast.Config, proposals []msg.Value, plan sim.FaultPlan) *sim.Execution {
	t.Helper()
	sc := sim.Config{N: cfg.N, T: cfg.T, Proposals: proposals, MaxRounds: gradecast.RoundBound() + 1}
	e, err := sim.Run(sc, gradecast.New(cfg), plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := omission.Validate(e); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	return e
}

// spec is the catalog entry campaigns judge gradecast by: G1 is its
// validity property, G2/G3 its Compat agreement relation.
func spec(t *testing.T) catalog.Spec {
	t.Helper()
	s, ok := catalog.Lookup("gradecast")
	if !ok {
		t.Fatal("gradecast is not registered")
	}
	return s
}

// checkG1G3 judges a run by the campaign verdict under the catalog spec.
func checkG1G3(t *testing.T, cfg gradecast.Config, e *sim.Execution) {
	t.Helper()
	s := spec(t)
	g1 := s.ValidityFor(catalog.Params{N: cfg.N, T: cfg.T, Sender: cfg.Sender})
	if v := adversary.CheckExecution(e, e.Proposals(), g1, s.Agreement); v != nil {
		t.Fatalf("gradecast %s violation: %s", v.Kind, v.Detail)
	}
}

func uniform(n int, v msg.Value) []msg.Value {
	out := make([]msg.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestCorrectSenderGradeTwo(t *testing.T) {
	cfg := gradecast.Config{N: 7, T: 2, Sender: 3}
	checkG1G3(t, cfg, runGC(t, cfg, uniform(7, "payload"), sim.NoFaults{}))
}

// splitDealer sends "L" to low ids and "R" to high ids, then behaves
// honestly in later rounds (echoing nothing).
type splitDealer struct{ n int }

func (m *splitDealer) Init() []sim.Outgoing {
	var out []sim.Outgoing
	for p := 1; p < m.n; p++ {
		v := "L"
		if p > m.n/2 {
			v = "R"
		}
		out = append(out, sim.Outgoing{To: proc.ID(p), Payload: v})
	}
	return out
}
func (m *splitDealer) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *splitDealer) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *splitDealer) Quiescent() bool                        { return true }

func TestEquivocatingDealerConsistency(t *testing.T) {
	// G2/G3 must hold even when the dealer equivocates: no two correct
	// processes with positive grades may disagree.
	cfg := gradecast.Config{N: 7, T: 2, Sender: 0}
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: &splitDealer{n: 7}}}
	checkG1G3(t, cfg, runGC(t, cfg, uniform(7, "ignored"), plan))
}

func TestSilentDealerGradeZero(t *testing.T) {
	cfg := gradecast.Config{N: 4, T: 1, Sender: 0}
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: silent{}}}
	e := runGC(t, cfg, uniform(4, "x"), plan)
	for _, id := range []proc.ID{1, 2, 3} {
		d, _ := e.Decision(id)
		g, _, err := gradecast.Parse(d)
		if err != nil {
			t.Fatal(err)
		}
		if g != 0 {
			t.Errorf("%s got grade %d for a silent dealer", id, g)
		}
	}
}

type silent struct{}

func (silent) Init() []sim.Outgoing                   { return nil }
func (silent) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (silent) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (silent) Quiescent() bool                        { return true }

// echoLiar is a corrupt non-dealer that echoes a fabricated value in
// rounds 2 and 3, trying to drag honest processes to a bogus grade.
type echoLiar struct {
	n  int
	id proc.ID
}

func (m *echoLiar) emit() []sim.Outgoing {
	var out []sim.Outgoing
	for p := 0; p < m.n; p++ {
		if proc.ID(p) != m.id {
			out = append(out, sim.Outgoing{To: proc.ID(p), Payload: "bogus"})
		}
	}
	return out
}
func (m *echoLiar) Init() []sim.Outgoing { return nil }
func (m *echoLiar) Step(round int, _ []msg.Message) []sim.Outgoing {
	if round < 3 {
		return m.emit()
	}
	return nil
}
func (m *echoLiar) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (m *echoLiar) Quiescent() bool             { return false }

func TestLyingEchoersCannotOverrideCorrectDealer(t *testing.T) {
	cfg := gradecast.Config{N: 7, T: 2, Sender: 0}
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{
		5: &echoLiar{n: 7, id: 5},
		6: &echoLiar{n: 7, id: 6},
	}}
	checkG1G3(t, cfg, runGC(t, cfg, uniform(7, "truth"), plan))
}

// TestOracleRejects pins the rejecting side of the one definition
// campaigns and the tests above judge gradecast by: the spec's G1 check
// and Compat (G2/G3).
func TestOracleRejects(t *testing.T) {
	out := gradecast.Output
	compat := []struct {
		a, b msg.Value
		ok   bool
	}{
		{out(2, "x"), out(0, "x"), false}, // G2: grade gap of 2
		{out(0, "x"), out(2, "x"), false},
		{out(1, "x"), out(1, "y"), false}, // G3: grade >= 1, values differ
		{out(2, "x"), out(1, "y"), false},
		{"junk", out(1, "x"), false},
		{out(2, "x"), out(1, "x"), true}, // neighbouring grades
		{out(1, "x"), out(0, "y"), true},
		{out(0, "x"), out(0, "y"), true},
		{out(2, "x"), out(2, "x"), true},
	}
	for _, c := range compat {
		if err := gradecast.Compat(c.a, c.b); (err == nil) != c.ok {
			t.Errorf("Compat(%q, %q) = %v, want ok=%v", c.a, c.b, err, c.ok)
		}
	}

	g1 := spec(t).ValidityFor(catalog.Params{N: 4, T: 1, Sender: 0})
	proposals := uniform(4, "v")
	all, senderFaulty := proc.Universe(4), proc.Range(1, 4)
	cases := []struct {
		correct  proc.Set
		decision msg.Value
		ok       bool
	}{
		{all, out(2, "v"), true},
		{all, out(1, "v"), false}, // correct sender, grade < 2
		{all, out(0, "v"), false},
		{all, out(2, "w"), false}, // correct sender, wrong value
		{all, "junk", false},
		{senderFaulty, out(0, ""), true}, // G1 binds only a correct sender
		{senderFaulty, out(2, "w"), true},
		{senderFaulty, "junk", true},
	}
	for _, c := range cases {
		if err := g1(proposals, c.correct, c.decision); (err == nil) != c.ok {
			t.Errorf("G1(correct=%v, %q) = %v, want ok=%v", c.correct, c.decision, err, c.ok)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (gradecast.Config{N: 6, T: 2, Sender: 0}).Validate(); err == nil {
		t.Error("expected n > 3t error")
	}
	if err := (gradecast.Config{N: 7, T: 2, Sender: 9}).Validate(); err == nil {
		t.Error("expected sender range error")
	}
	if err := (gradecast.Config{N: 7, T: 2, Sender: 0}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := gradecast.Parse("junk"); err == nil {
		t.Error("expected parse error")
	}
	if _, _, err := gradecast.Parse("g|x|v"); err == nil {
		t.Error("expected grade parse error")
	}
	g, v, err := gradecast.Parse(gradecast.Output(2, "val"))
	if err != nil || g != 2 || v != "val" {
		t.Errorf("round trip: %d %q %v", g, v, err)
	}
}

func TestMessageComplexityQuadratic(t *testing.T) {
	n := 10
	cfg := gradecast.Config{N: n, T: 3, Sender: 0}
	sc := sim.Config{N: n, T: 3, Proposals: uniform(n, "v"), MaxRounds: gradecast.RoundBound() + 1}
	e, err := sim.Run(sc, gradecast.New(cfg), sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	// One dealer round + two all-to-all rounds: <= (n-1) + 2n(n-1).
	limit := (n - 1) + 2*n*(n-1)
	if got := e.CorrectMessages(); got > limit {
		t.Errorf("%d messages > bound %d", got, limit)
	}
}
