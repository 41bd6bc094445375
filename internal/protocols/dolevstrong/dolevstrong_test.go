package dolevstrong_test

import (
	"testing"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/sim"
)

func newCfg(n, t int, scheme sig.Scheme) dolevstrong.Config {
	return dolevstrong.Config{N: n, T: t, Sender: 0, Scheme: scheme, Tag: "bb", Default: "⊥"}
}

func run(t *testing.T, cfg dolevstrong.Config, proposals []msg.Value, plan sim.FaultPlan) *sim.Execution {
	t.Helper()
	sc := sim.Config{
		N:         cfg.N,
		T:         cfg.T,
		Proposals: proposals,
		MaxRounds: dolevstrong.RoundBound(cfg.T) + 2,
	}
	e, err := sim.Run(sc, dolevstrong.New(cfg), plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

func uniform(n int, v msg.Value) []msg.Value {
	out := make([]msg.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestCorrectSenderAllSchemes(t *testing.T) {
	for name, scheme := range map[string]sig.Scheme{
		"ideal":   sig.NewIdeal("ds-test"),
		"ed25519": sig.NewEd25519("ds-test", 5),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := newCfg(5, 2, scheme)
			e := run(t, cfg, uniform(5, "vote-42"), sim.NoFaults{})
			d, err := e.CommonDecision(proc.Universe(5))
			if err != nil {
				t.Fatalf("CommonDecision: %v", err)
			}
			if d != "vote-42" {
				t.Errorf("decided %q, want sender's value", d)
			}
			if e.Rounds > dolevstrong.RoundBound(2)+1 {
				t.Errorf("decided after %d rounds, bound is %d", e.Rounds, dolevstrong.RoundBound(2))
			}
			if err := omission.Validate(e); err != nil {
				t.Errorf("trace invalid: %v", err)
			}
		})
	}
}

func TestMessageComplexityQuadratic(t *testing.T) {
	scheme := sig.NewIdeal("ds-complexity")
	for _, n := range []int{4, 8, 16} {
		tf := n/2 - 1
		cfg := newCfg(n, tf, scheme)
		e := run(t, cfg, uniform(n, "v"), sim.NoFaults{})
		// Each correct process forwards each accepted value at most once:
		// with a correct sender there is one value, so <= n(n-1)+n messages.
		limit := 2*n*(n-1) + n
		if got := e.CorrectMessages(); got > limit {
			t.Errorf("n=%d: %d messages > O(n²) bound %d", n, got, limit)
		}
	}
}

func TestSilentSenderDecidesDefault(t *testing.T) {
	scheme := sig.NewIdeal("ds-silent")
	cfg := newCfg(5, 2, scheme)
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: sim.Silent{}}}
	e := run(t, cfg, uniform(5, "v"), plan)
	d, err := e.CommonDecision(proc.Range(1, 5))
	if err != nil {
		t.Fatalf("CommonDecision: %v", err)
	}
	if d != "⊥" {
		t.Errorf("decided %q, want default", d)
	}
}

// equivocator sends value vA (signed) to the first half of the peers and
// vB to the rest in round 1, then stays silent.
type equivocator struct {
	cfg    dolevstrong.Config
	vA, vB msg.Value
	signer sig.Scheme
}

func (m *equivocator) item(v msg.Value) dolevstrong.Item {
	s, err := m.signer.Sign(m.cfg.Sender, dolevstrong.SignedData(m.cfg.Tag, v))
	if err != nil {
		panic("test adversary cannot sign: " + err.Error())
	}
	return dolevstrong.Item{V: v, C: []dolevstrong.Link{{S: int(m.cfg.Sender), G: s}}}
}

func (m *equivocator) Init() []sim.Outgoing {
	var out []sim.Outgoing
	for p := 1; p < m.cfg.N; p++ {
		it := m.item(m.vA)
		if p > m.cfg.N/2 {
			it = m.item(m.vB)
		}
		out = append(out, sim.Outgoing{
			To:      proc.ID(p),
			Payload: msg.Encode(dolevstrong.Payload{Items: []dolevstrong.Item{it}}),
		})
	}
	return out
}

func (m *equivocator) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *equivocator) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *equivocator) Quiescent() bool                        { return true }

func TestEquivocatingSenderAgreementHolds(t *testing.T) {
	scheme := sig.NewIdeal("ds-equiv")
	cfg := newCfg(7, 2, scheme)
	adv := &equivocator{cfg: cfg, vA: "A", vB: "B", signer: scheme}
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: adv}}
	e := run(t, cfg, uniform(7, "ignored"), plan)
	d, err := e.CommonDecision(proc.Range(1, 7))
	if err != nil {
		t.Fatalf("Agreement violated under equivocation: %v", err)
	}
	if d != "⊥" {
		t.Errorf("decided %q, want default (sender equivocated)", d)
	}
}

func TestEquivocationBreaksWithoutRelay(t *testing.T) {
	// Ablation: with relaying disabled the halves never learn about the
	// other value — Agreement fails. This is why Dolev-Strong needs its
	// (quadratic) relay traffic.
	scheme := sig.NewIdeal("ds-norelay")
	cfg := newCfg(7, 2, scheme)
	cfg.UnsafeNoRelay = true
	adv := &equivocator{cfg: cfg, vA: "A", vB: "B", signer: scheme}
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: adv}}
	e := run(t, cfg, uniform(7, "ignored"), plan)
	if _, err := e.CommonDecision(proc.Range(1, 7)); err == nil {
		t.Fatal("expected Agreement violation with relaying ablated")
	}
}

// forger injects a value with an invalid signature chain.
type forger struct {
	cfg dolevstrong.Config
	id  proc.ID
}

func (m *forger) Init() []sim.Outgoing {
	it := dolevstrong.Item{V: "forged", C: []dolevstrong.Link{{S: 0, G: "deadbeef"}}}
	var out []sim.Outgoing
	for p := 0; p < m.cfg.N; p++ {
		if proc.ID(p) == m.id {
			continue
		}
		out = append(out, sim.Outgoing{
			To:      proc.ID(p),
			Payload: msg.Encode(dolevstrong.Payload{Items: []dolevstrong.Item{it}}),
		})
	}
	return out
}

func (m *forger) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *forger) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *forger) Quiescent() bool                        { return true }

func TestForgedChainRejected(t *testing.T) {
	scheme := sig.NewIdeal("ds-forge")
	cfg := newCfg(5, 1, scheme)
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{3: &forger{cfg: cfg, id: 3}}}
	e := run(t, cfg, uniform(5, "real"), plan)
	d, err := e.CommonDecision(proc.NewSet(0, 1, 2, 4))
	if err != nil {
		t.Fatalf("CommonDecision: %v", err)
	}
	if d != "real" {
		t.Errorf("decided %q despite forged injection, want sender's value", d)
	}
}

// lateChain is a two-collaborator attack: the Byzantine sender signs a
// second value and hands it to a Byzantine accomplice, which releases the
// double-signed chain to exactly one correct process in the final round.
type lateSender struct {
	cfg    dolevstrong.Config
	signer sig.Scheme
}

func (m *lateSender) Init() []sim.Outgoing {
	s, err := m.signer.Sign(0, dolevstrong.SignedData(m.cfg.Tag, "good"))
	if err != nil {
		panic(err)
	}
	it := dolevstrong.Item{V: "good", C: []dolevstrong.Link{{S: 0, G: s}}}
	var out []sim.Outgoing
	for p := 1; p < m.cfg.N; p++ {
		out = append(out, sim.Outgoing{
			To:      proc.ID(p),
			Payload: msg.Encode(dolevstrong.Payload{Items: []dolevstrong.Item{it}}),
		})
	}
	return out
}

func (m *lateSender) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *lateSender) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *lateSender) Quiescent() bool                        { return true }

type accomplice struct {
	cfg    dolevstrong.Config
	signer sig.Scheme
	victim proc.ID
}

func (m *accomplice) Init() []sim.Outgoing { return nil }

func (m *accomplice) Step(round int, _ []msg.Message) []sim.Outgoing {
	// Release a 2-signature chain for "evil" at the start of round 2 — with
	// t=2 that is still before the t+1 cutoff, so the victim must relay it
	// and everyone converges on the default.
	if round != 1 {
		return nil
	}
	s0, err := m.signer.Sign(0, dolevstrong.SignedData(m.cfg.Tag, "evil"))
	if err != nil {
		panic(err)
	}
	s1, err := m.signer.Sign(1, dolevstrong.SignedData(m.cfg.Tag, "evil"))
	if err != nil {
		panic(err)
	}
	it := dolevstrong.Item{V: "evil", C: []dolevstrong.Link{{S: 0, G: s0}, {S: 1, G: s1}}}
	return []sim.Outgoing{{To: m.victim, Payload: msg.Encode(dolevstrong.Payload{Items: []dolevstrong.Item{it}})}}
}

func (m *accomplice) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (m *accomplice) Quiescent() bool             { return false }

func TestLateChainAttackAgreementHolds(t *testing.T) {
	scheme := sig.NewIdeal("ds-late")
	cfg := newCfg(6, 2, scheme)
	adv := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{
		0: &lateSender{cfg: cfg, signer: scheme},
		1: &accomplice{cfg: cfg, signer: scheme, victim: 2},
	}}
	e := run(t, cfg, uniform(6, "ignored"), adv)
	d, err := e.CommonDecision(proc.Range(2, 6))
	if err != nil {
		t.Fatalf("Agreement violated by late chain release: %v", err)
	}
	// The victim relays the second value, so everyone sees the
	// equivocation and decides the default.
	if d != "⊥" {
		t.Errorf("decided %q, want default", d)
	}
}

func TestConfigValidate(t *testing.T) {
	scheme := sig.NewIdeal("x")
	cases := []dolevstrong.Config{
		{N: 1, T: 0, Sender: 0, Scheme: scheme},
		{N: 4, T: 4, Sender: 0, Scheme: scheme},
		{N: 4, T: 1, Sender: 9, Scheme: scheme},
		{N: 4, T: 1, Sender: 0, Scheme: nil},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := newCfg(4, 1, scheme).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
