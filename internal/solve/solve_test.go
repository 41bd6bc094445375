package solve_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/solve"
	"expensive/internal/validity"
)

// liar broadcasts alternating bits to confuse derived protocols.
type liar struct {
	n  int
	id proc.ID
}

func (m *liar) Init() []sim.Outgoing {
	var out []sim.Outgoing
	for p := 0; p < m.n; p++ {
		if proc.ID(p) == m.id {
			continue
		}
		out = append(out, sim.Outgoing{To: proc.ID(p), Payload: string(msg.Bit(p % 2))})
	}
	return out
}
func (m *liar) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *liar) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *liar) Quiescent() bool                        { return true }

// checkAll exercises the derived protocol on every input configuration of
// the problem (faulty slots silent or lying) and verifies the outcome.
func checkAll(t *testing.T, p validity.Problem, d *solve.Derived) {
	t.Helper()
	for _, c := range p.Configs() {
		if err := solve.Check(p, d, c, nil); err != nil {
			t.Fatalf("config %v (silent faulty): %v", c, err)
		}
		byz := make(map[proc.ID]sim.Machine)
		for _, id := range c.Pi().Complement(p.N).Members() {
			byz[id] = &liar{n: p.N, id: id}
		}
		if len(byz) > 0 {
			if err := solve.Check(p, d, c, byz); err != nil {
				t.Fatalf("config %v (lying faulty): %v", c, err)
			}
		}
	}
}

func TestDeriveAuthenticatedWeak(t *testing.T) {
	p := validity.Weak(4, 2) // n <= 3t: authenticated-only territory
	d, err := solve.Authenticated(p, sig.NewIdeal("solve-weak"))
	if err != nil {
		t.Fatalf("Authenticated: %v", err)
	}
	if d.Mode != "authenticated-ic" {
		t.Errorf("mode = %q", d.Mode)
	}
	checkAll(t, p, d)
}

func TestDeriveAuthenticatedStrongAtFrontier(t *testing.T) {
	// n = 2t+1: exactly the Theorem 5 frontier.
	p := validity.Strong(5, 2)
	d, err := solve.Authenticated(p, sig.NewIdeal("solve-strong"))
	if err != nil {
		t.Fatalf("Authenticated: %v", err)
	}
	checkAll(t, p, d)
}

func TestDeriveAuthenticatedBroadcast(t *testing.T) {
	p := validity.Broadcast(4, 2, 1)
	d, err := solve.Authenticated(p, sig.NewIdeal("solve-bb"))
	if err != nil {
		t.Fatalf("Authenticated: %v", err)
	}
	checkAll(t, p, d)
}

func TestDeriveUnauthenticatedWeak(t *testing.T) {
	p := validity.Weak(4, 1) // n > 3t
	d, err := solve.Unauthenticated(p)
	if err != nil {
		t.Fatalf("Unauthenticated: %v", err)
	}
	if d.Mode != "unauthenticated-eig" {
		t.Errorf("mode = %q", d.Mode)
	}
	checkAll(t, p, d)
}

func TestDeriveUnauthenticatedCorrectSource(t *testing.T) {
	p := validity.CorrectSource(5, 1)
	d, err := solve.Unauthenticated(p)
	if err != nil {
		t.Fatalf("Unauthenticated: %v", err)
	}
	checkAll(t, p, d)
}

func TestDeriveTrivial(t *testing.T) {
	p := validity.Constant(4, 3, msg.One)
	d, err := solve.Unauthenticated(p)
	if err != nil {
		t.Fatalf("trivial derivation: %v", err)
	}
	if d.Mode != "trivial" {
		t.Errorf("mode = %q", d.Mode)
	}
	// Zero messages, decides in round 1.
	proposals := []msg.Value{"0", "1", "0", "1"}
	cfg := sim.Config{N: 4, T: 3, Proposals: proposals, MaxRounds: 2}
	e, err := sim.Run(cfg, d.Factory, sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if e.CorrectMessages() != 0 {
		t.Errorf("trivial protocol sent %d messages", e.CorrectMessages())
	}
	dec, err := e.CommonDecision(proc.Universe(4))
	if err != nil || dec != msg.One {
		t.Errorf("decided %q err %v", dec, err)
	}
}

func TestUnsolvableVerdicts(t *testing.T) {
	// Strong consensus at n = 2t: CC fails — no protocol in either model.
	if _, err := solve.Authenticated(validity.Strong(4, 2), sig.NewIdeal("x")); !errors.Is(err, solve.ErrUnsolvable) {
		t.Errorf("expected ErrUnsolvable, got %v", err)
	}
	// Weak consensus at n <= 3t without signatures (Lemma 10 territory).
	if _, err := solve.Unauthenticated(validity.Weak(4, 2)); !errors.Is(err, solve.ErrUnsolvable) {
		t.Errorf("expected ErrUnsolvable, got %v", err)
	}
}

func TestCheckRejectsBadInputs(t *testing.T) {
	p := validity.Weak(4, 1)
	d, err := solve.Authenticated(p, sig.NewIdeal("solve-chk"))
	if err != nil {
		t.Fatal(err)
	}
	// Too many faulty processes for the problem's t.
	c, err := validity.NewConfig(4, map[proc.ID]msg.Value{0: "0", 1: "0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := solve.Check(p, d, c, nil); err == nil {
		t.Error("expected fault-budget error")
	}
	// Mismatched n.
	c5 := validity.FullConfig([]msg.Value{"0", "0", "0", "0", "0"})
	if err := solve.Check(p, d, c5, nil); err == nil {
		t.Error("expected size mismatch error")
	}
}

// TestDerivationEnumeratesOnce counts validity-predicate calls: deriving a
// protocol costs what the Theorem 4 verdict costs — one pass for
// triviality and one containment-condition enumeration, whose Γ the
// derivation keeps instead of enumerating again.
func TestDerivationEnumeratesOnce(t *testing.T) {
	p := validity.Strong(5, 1)
	calls := 0
	admissible := p.Admissible
	p.Admissible = func(c validity.InputConfig, v msg.Value) bool {
		calls++
		return admissible(c, v)
	}
	p.Solve()
	verdict := calls
	for name, derive := range map[string]func() (*solve.Derived, error){
		"Authenticated":   func() (*solve.Derived, error) { return solve.Authenticated(p, sig.NewIdeal("solve-once")) },
		"Unauthenticated": func() (*solve.Derived, error) { return solve.Unauthenticated(p) },
	} {
		calls = 0
		if _, err := derive(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if calls != verdict {
			t.Errorf("%s calls the validity predicate %d times, the verdict alone %d", name, calls, verdict)
		}
	}
}

// chatter broadcasts its proposal every round; from round decideAt on it
// decides its own proposal, and with decideAt = 0 it never decides.
type chatter struct {
	sim.DecideOnce
	out      sim.Broadcast
	proposal msg.Value
	decideAt int
}

func (m *chatter) Init() []sim.Outgoing { return m.out.Send(string(m.proposal)) }

func (m *chatter) Step(round int, _ []msg.Message) []sim.Outgoing {
	if m.decideAt > 0 && round >= m.decideAt {
		m.Decide(m.proposal)
	}
	return m.out.Send(string(m.proposal))
}

func (m *chatter) Quiescent() bool { return false }

// TestCheckTiersAgree holds Check, which records its run at
// sim.RecordDecisions, to the same check recorded at sim.RecordFull over
// one E6 cell, strong consensus at (4, 1) derived over authenticated IC:
// on every input configuration, with faulty processes silent or lying,
// both tiers must return the same verdict, error text included. The cell
// also runs three broken protocols in the derived protocol's place — one
// deciding its own proposal (Agreement), one deciding 1 (Strong Validity
// on unanimous 0) and one never deciding (Termination) — so failing
// configurations are compared too.
func TestCheckTiersAgree(t *testing.T) {
	p := validity.Strong(4, 1)
	derived, err := solve.Authenticated(p, sig.NewIdeal("e6"))
	if err != nil {
		t.Fatal(err)
	}
	broken := func(decideAt int, decide func(msg.Value) msg.Value) *solve.Derived {
		return &solve.Derived{Rounds: derived.Rounds, Factory: func(_ proc.ID, v msg.Value) sim.Machine {
			return &chatter{proposal: decide(v), decideAt: decideAt}
		}}
	}
	same := func(v msg.Value) msg.Value { return v }
	protocols := map[string]*solve.Derived{
		"derived":  derived,
		"own":      broken(2, same),
		"constant": broken(1, func(msg.Value) msg.Value { return msg.One }),
		"mute":     broken(0, same),
	}
	kind := map[string]string{"own": "agreement", "constant": "validity", "mute": "termination"}
	failed := map[string]int{}
	for name, d := range protocols {
		for _, c := range p.Configs() {
			byz := make(map[proc.ID]sim.Machine)
			for _, id := range c.Pi().Complement(p.N).Members() {
				byz[id] = &liar{n: p.N, id: id}
			}
			for _, faulty := range []map[proc.ID]sim.Machine{nil, byz} {
				lean := solve.Check(p, d, c, faulty)
				full := solve.CheckAt(p, d, c, faulty, sim.RecordFull)
				if fmt.Sprint(lean) != fmt.Sprint(full) {
					t.Errorf("%s on %v (lying faulty %v): lean %v, full %v", name, c, faulty != nil, lean, full)
				}
				if lean != nil {
					failed[name]++
					if !strings.HasPrefix(lean.Error(), kind[name]+" violated") {
						t.Errorf("%s on %v: %v, want a %s violation", name, c, lean, kind[name])
					}
				}
			}
		}
	}
	if failed["derived"] != 0 {
		t.Errorf("the derived protocol fails %d checks", failed["derived"])
	}
	for name := range kind {
		if failed[name] == 0 {
			t.Errorf("%s never fails: the cell compares no failing verdict of its kind", name)
		}
	}
}
