// Package reduction implements the paper's two constructive reductions:
//
//   - Algorithm 1 (§4.2): a zero-message reduction from weak consensus to
//     any solvable non-trivial agreement problem P. Proposing 0 (resp. 1)
//     feeds P the fixed fully-correct input configuration c0 (resp. c1);
//     deciding v'_0 from P maps to 0, anything else to 1. Lemma 18 shows
//     this is a correct weak consensus algorithm with *exactly* the message
//     complexity of P — which is how the Ω(t²) bound generalizes
//     (Theorem 3).
//
//   - Algorithm 2 (§5.2.2): a reduction from any agreement problem P
//     satisfying the containment condition to interactive consistency. A
//     process forwards its proposal to IC and decides Γ(vec) on the decided
//     vector. This is the sufficiency half of the general solvability
//     theorem (Theorem 4) and the way this library *derives protocols
//     automatically* from validity properties.
package reduction

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Gamma is the Turing-computable selector of Definition 3: it maps a
// decided I_n vector to a value admissible under every contained input
// configuration.
type Gamma func(vec []msg.Value) msg.Value

// FromIC implements Algorithm 2: wrap an interactive-consistency factory
// so that the machine decides Γ(vec) once IC decides vec. The reduction
// adds no messages.
func FromIC(icFactory sim.Factory, gamma Gamma) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &gammaMachine{inner: icFactory(id, proposal), gamma: gamma}
	}
}

type gammaMachine struct {
	sim.DecideOnce
	inner sim.Machine
	gamma Gamma
}

var _ sim.Machine = (*gammaMachine)(nil)

func (m *gammaMachine) Init() []sim.Outgoing { return m.inner.Init() }

func (m *gammaMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	out := m.inner.Step(round, received)
	if _, decided := m.Decision(); !decided {
		if v, ok := m.inner.Decision(); ok {
			if vec, err := msg.DecodeVector(v); err == nil {
				m.Decide(m.gamma(vec))
			}
		}
	}
	return out
}

func (m *gammaMachine) Quiescent() bool { return m.inner.Quiescent() }

// Alg1Spec fixes the ingredients of Algorithm 1 (Table 2): the two
// fully-correct input configurations and the value P decides under c0.
type Alg1Spec struct {
	// C0 is an input configuration of P with all processes correct
	// (π(c0) = Π); proposing 0 to weak consensus proposes C0[i] to P.
	C0 []msg.Value
	// C1 is a fully-correct input configuration containing some c1* with
	// v'_0 ∉ val(c1*); proposing 1 proposes C1[i].
	C1 []msg.Value
	// V0 is the value P decides in the fully-correct execution on C0.
	V0 msg.Value
}

// WeakFromAgreement implements Algorithm 1: builds a binary weak consensus
// factory on top of any factory solving P, adding zero messages.
func WeakFromAgreement(inner sim.Factory, spec Alg1Spec) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		prop := spec.C0[id]
		if proposal == msg.One {
			prop = spec.C1[id]
		}
		return &alg1Machine{inner: inner(id, prop), v0: spec.V0}
	}
}

type alg1Machine struct {
	sim.DecideOnce
	inner sim.Machine
	v0    msg.Value
}

var _ sim.Machine = (*alg1Machine)(nil)

func (m *alg1Machine) Init() []sim.Outgoing { return m.inner.Init() }

func (m *alg1Machine) Step(round int, received []msg.Message) []sim.Outgoing {
	out := m.inner.Step(round, received)
	if v, ok := m.inner.Decision(); ok {
		if v == m.v0 {
			m.Decide(msg.Zero)
		} else {
			m.Decide(msg.One)
		}
	}
	return out
}

func (m *alg1Machine) Quiescent() bool { return m.inner.Quiescent() }

// TrivialLiftError is DeriveAlg1's refusal when P's fully-correct
// executions E0 (on c0) and E1 (on c1) both decide Decision. Lemma 18 needs
// E1 to decide something other than v'_0; otherwise the lift breaks Weak
// Validity because of the choice of (c0, c1), not because of P.
type TrivialLiftError struct{ Decision msg.Value }

// Error implements error.
func (e *TrivialLiftError) Error() string {
	return fmt.Sprintf("derive alg1: E0 (on c0) and E1 (on c1) both decide %q; Lemma 18 needs E1 to decide something else", e.Decision)
}

// DeriveAlg1 computes V0 for Algorithm 1 by running P's fully-correct
// execution E0 on configuration c0 (Table 2: v'_0 is well-defined because
// P satisfies Termination and Agreement and fully-correct executions are
// determined by the proposals). It also runs E1 on c1 and refuses with a
// *TrivialLiftError when E1 decides v'_0 too.
func DeriveAlg1(inner sim.Factory, n, t, horizon int, c0, c1 []msg.Value) (Alg1Spec, error) {
	if len(c0) != n || len(c1) != n {
		return Alg1Spec{}, fmt.Errorf("derive alg1: configurations must assign all %d processes", n)
	}
	var v [2]msg.Value
	for i, c := range [][]msg.Value{c0, c1} {
		cfg := sim.Config{N: n, T: t, Proposals: append([]msg.Value{}, c...), MaxRounds: horizon, Recording: sim.RecordDecisions}
		exec, err := sim.Run(cfg, inner, sim.NoFaults{})
		if err != nil {
			return Alg1Spec{}, fmt.Errorf("derive alg1: run E%d: %w", i, err)
		}
		if v[i], err = exec.CommonDecision(proc.Universe(n)); err != nil {
			return Alg1Spec{}, fmt.Errorf("derive alg1: E%d has no common decision: %w", i, err)
		}
	}
	if v[1] == v[0] {
		return Alg1Spec{}, &TrivialLiftError{Decision: v[0]}
	}
	return Alg1Spec{C0: append([]msg.Value{}, c0...), C1: append([]msg.Value{}, c1...), V0: v[0]}, nil
}

// Closed-form Γ selectors for the standard validity properties, usable at
// any n (the validity package synthesizes Γ for arbitrary finite
// properties at small n).

// GammaWeak selects the unanimous value of the vector, or def when the
// vector is not unanimous. It realizes Weak Validity through Algorithm 2:
// Γ(vec) ∈ ⋂_{c' ⊑ vec} val_weak(c') because only the full configuration
// constrains the decision.
func GammaWeak(def msg.Value) Gamma {
	return func(vec []msg.Value) msg.Value {
		if len(vec) == 0 {
			return def
		}
		v := vec[0]
		for _, x := range vec[1:] {
			if x != v {
				return def
			}
		}
		return v
	}
}

// GammaStrong selects the value held by at least n-t entries (unique when
// n > 2t), or def when none exists. It realizes Strong Validity through
// Algorithm 2 for n > 2t — the solvability frontier Theorem 5 establishes.
func GammaStrong(n, t int, def msg.Value) Gamma {
	return func(vec []msg.Value) msg.Value {
		counts := make(map[msg.Value]int, len(vec))
		for _, v := range vec {
			counts[v]++
		}
		best, bestN := def, -1
		for v, c := range counts {
			if c > bestN || (c == bestN && v < best) {
				best, bestN = v, c
			}
		}
		if bestN >= n-t {
			return best
		}
		return def
	}
}

// GammaFirstValid selects the first entry (in process order) satisfying
// the predicate, or fallback — the External Validity selector of §4.3.
func GammaFirstValid(valid func(msg.Value) bool, fallback msg.Value) Gamma {
	return func(vec []msg.Value) msg.Value {
		for _, v := range vec {
			if valid(v) {
				return v
			}
		}
		return fallback
	}
}
