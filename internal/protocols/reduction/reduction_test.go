package reduction_test

import (
	"errors"
	"testing"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/eig"
	"expensive/internal/protocols/ic"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/protocols/reduction"
	"expensive/internal/sim"
)

func uniform(n int, v msg.Value) []msg.Value {
	out := make([]msg.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func run(t *testing.T, factory sim.Factory, n, tf, rounds int, proposals []msg.Value, plan sim.FaultPlan) *sim.Execution {
	t.Helper()
	cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: rounds}
	e, err := sim.Run(cfg, factory, plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

func TestAlgorithm2WeakConsensusViaEIG(t *testing.T) {
	n, tf := 4, 1
	inner := eig.New(eig.Config{N: n, T: tf, Default: msg.One})
	factory := reduction.FromIC(inner, reduction.GammaWeak(msg.One))
	for _, b := range []msg.Value{msg.Zero, msg.One} {
		e := run(t, factory, n, tf, eig.RoundBound(tf)+2, uniform(n, b), sim.NoFaults{})
		d, err := e.CommonDecision(proc.Universe(n))
		if err != nil || d != b {
			t.Errorf("unanimous %s: decided %q err %v", b, d, err)
		}
	}
	// Mixed proposals: Γ_weak falls to the default.
	e := run(t, factory, n, tf, eig.RoundBound(tf)+2, []msg.Value{"0", "1", "0", "1"}, sim.NoFaults{})
	d, err := e.CommonDecision(proc.Universe(n))
	if err != nil || d != msg.One {
		t.Errorf("mixed: decided %q err %v", d, err)
	}
}

func TestAlgorithm2StrongConsensusViaIC(t *testing.T) {
	// Authenticated strong consensus at the Theorem 5 frontier n = 2t+1:
	// impossible for n = 2t, derived here mechanically for n = 5, t = 2.
	n, tf := 5, 2
	scheme := sig.NewIdeal("alg2-strong")
	inner := ic.New(ic.Config{N: n, T: tf, Scheme: scheme, Default: msg.One})
	factory := reduction.FromIC(inner, reduction.GammaStrong(n, tf, msg.One))

	// All correct processes propose 0; two Byzantine processes stay silent.
	silent := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{
		3: sim.Silent{},
		4: sim.Silent{},
	}}
	e := run(t, factory, n, tf, ic.RoundBound(tf)+2, uniform(n, msg.Zero), silent)
	d, err := e.CommonDecision(proc.NewSet(0, 1, 2))
	if err != nil {
		t.Fatalf("Agreement: %v", err)
	}
	if d != msg.Zero {
		t.Errorf("decided %q, want 0 (Strong Validity: all correct proposed 0)", d)
	}
}

func TestAlgorithm1ZeroMessageOverhead(t *testing.T) {
	// Lemma 18: the Algorithm 1 wrapper has *identical* message complexity
	// to the underlying protocol. Compare fault-free runs message for
	// message.
	n, tf := 5, 1
	inner := phaseking.New(phaseking.Config{N: n, T: tf})
	spec, err := reduction.DeriveAlg1(inner, n, tf, phaseking.RoundBound(tf)+2,
		uniform(n, msg.Zero), uniform(n, msg.One))
	if err != nil {
		t.Fatalf("DeriveAlg1: %v", err)
	}
	if spec.V0 != msg.Zero {
		t.Fatalf("V0 = %q, want 0", spec.V0)
	}
	wrapped := reduction.WeakFromAgreement(inner, spec)

	for _, b := range []msg.Value{msg.Zero, msg.One} {
		ew := run(t, wrapped, n, tf, phaseking.RoundBound(tf)+2, uniform(n, b), sim.NoFaults{})
		proposalsInner := spec.C0
		if b == msg.One {
			proposalsInner = spec.C1
		}
		ei := run(t, inner, n, tf, phaseking.RoundBound(tf)+2, proposalsInner, sim.NoFaults{})
		if mw, mi := ew.CorrectMessages(), ei.CorrectMessages(); mw != mi {
			t.Errorf("proposal %s: wrapped sends %d, inner sends %d — reduction must add zero messages", b, mw, mi)
		}
		d, err := ew.CommonDecision(proc.Universe(n))
		if err != nil || d != b {
			t.Errorf("proposal %s: decided %q err %v (Weak Validity)", b, d, err)
		}
	}
}

func TestAlgorithm1OverInteractiveConsistency(t *testing.T) {
	// Weak consensus from IC: the decided objects of P are whole vectors;
	// the reduction only compares against v'_0.
	n, tf := 4, 1
	scheme := sig.NewIdeal("alg1-ic")
	inner := ic.New(ic.Config{N: n, T: tf, Scheme: scheme, Default: msg.One})
	c0 := uniform(n, msg.Zero)
	c1 := uniform(n, msg.One)
	spec, err := reduction.DeriveAlg1(inner, n, tf, ic.RoundBound(tf)+2, c0, c1)
	if err != nil {
		t.Fatalf("DeriveAlg1: %v", err)
	}
	wrapped := reduction.WeakFromAgreement(inner, spec)
	for _, b := range []msg.Value{msg.Zero, msg.One} {
		e := run(t, wrapped, n, tf, ic.RoundBound(tf)+2, uniform(n, b), sim.NoFaults{})
		d, err := e.CommonDecision(proc.Universe(n))
		if err != nil || d != b {
			t.Errorf("proposal %s: decided %q err %v", b, d, err)
		}
	}
}

func TestDeriveAlg1Errors(t *testing.T) {
	inner := phaseking.New(phaseking.Config{N: 5, T: 1})
	if _, err := reduction.DeriveAlg1(inner, 5, 1, 6, uniform(4, msg.Zero), uniform(5, msg.One)); err == nil {
		t.Error("expected length error")
	}
}

// constant decides "same" on its first step whatever it is proposed: an
// agreement protocol whose every fully-correct execution decides one value.
type constant struct{ sim.DecideOnce }

func (m *constant) Init() []sim.Outgoing { return nil }

func (m *constant) Step(int, []msg.Message) []sim.Outgoing {
	m.Decide("same")
	return nil
}

// TestDeriveAlg1RefusesTrivialLift holds DeriveAlg1 to Lemma 18's
// hypothesis: when c1's fault-free run decides v'_0 too, the lift would
// break Weak Validity on its own, so DeriveAlg1 refuses it.
func TestDeriveAlg1RefusesTrivialLift(t *testing.T) {
	factory := func(proc.ID, msg.Value) sim.Machine { return &constant{} }
	_, err := reduction.DeriveAlg1(factory, 5, 1, 4, uniform(5, msg.Zero), uniform(5, msg.One))
	var trivial *reduction.TrivialLiftError
	if !errors.As(err, &trivial) {
		t.Fatalf("DeriveAlg1 on a constant protocol: got %v, want a *TrivialLiftError", err)
	}
	if trivial.Decision != "same" {
		t.Errorf("refusal names decision %q, want \"same\"", trivial.Decision)
	}
}

func TestGammaSelectors(t *testing.T) {
	if v := reduction.GammaWeak("d")([]msg.Value{"x", "x", "x"}); v != "x" {
		t.Errorf("GammaWeak unanimous = %q", v)
	}
	if v := reduction.GammaWeak("d")([]msg.Value{"x", "y"}); v != "d" {
		t.Errorf("GammaWeak mixed = %q", v)
	}
	if v := reduction.GammaWeak("d")(nil); v != "d" {
		t.Errorf("GammaWeak empty = %q", v)
	}
	gs := reduction.GammaStrong(5, 2, "d")
	if v := gs([]msg.Value{"a", "a", "a", "b", "c"}); v != "a" {
		t.Errorf("GammaStrong n-t majority = %q", v)
	}
	if v := gs([]msg.Value{"a", "a", "b", "b", "c"}); v != "d" {
		t.Errorf("GammaStrong no n-t majority = %q", v)
	}
	gf := reduction.GammaFirstValid(func(v msg.Value) bool { return v == "ok" }, "fb")
	if v := gf([]msg.Value{"no", "ok", "ok2"}); v != "ok" {
		t.Errorf("GammaFirstValid = %q", v)
	}
	if v := gf([]msg.Value{"no"}); v != "fb" {
		t.Errorf("GammaFirstValid fallback = %q", v)
	}
}
