package lowerbound

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/reduction"
	"expensive/internal/sim"
)

// CheckViolation independently verifies a certificate produced by Falsify:
//
//  1. the execution passes omission.Certify — the five Appendix A.1.6
//     guarantees (at most t faulty among them) and every process's
//     recorded behavior exactly reproduced by re-running the protocol's
//     honest machine on its recorded inputs, so the trace genuinely
//     belongs to the protocol — and
//  2. the claimed violation is visible in the trace: two correct processes
//     with different decisions, a correct process undecided past the
//     protocol's round bound, or a correct process breaking Weak Validity
//     in a unanimous fault-free execution.
//
// A nil return means the counterexample stands on its own: the protocol is
// not a correct weak consensus algorithm.
func CheckViolation(v *Violation, factory sim.Factory, roundBound int) error {
	if v == nil {
		return fmt.Errorf("check: nil violation")
	}
	e := v.Exec
	if err := omission.Certify(e, factory, proc.Set{}); err != nil {
		return fmt.Errorf("check: %w", err)
	}

	correct := e.Correct()
	switch v.Kind {
	case "agreement":
		if !correct.Contains(v.Witness1) || !correct.Contains(v.Witness2) {
			return fmt.Errorf("check: agreement witnesses %s, %s not both correct (faulty=%v)",
				v.Witness1, v.Witness2, e.Faulty)
		}
		d1, ok1 := e.Decision(v.Witness1)
		d2, ok2 := e.Decision(v.Witness2)
		if !ok1 || !ok2 {
			return fmt.Errorf("check: agreement witnesses not both decided")
		}
		if d1 == d2 {
			return fmt.Errorf("check: witnesses agree on %q; no agreement violation", d1)
		}
	case "termination":
		if !correct.Contains(v.Witness2) {
			return fmt.Errorf("check: termination witness %s not correct", v.Witness2)
		}
		if _, ok := e.Decision(v.Witness2); ok {
			return fmt.Errorf("check: termination witness decided")
		}
		if e.Rounds < roundBound {
			return fmt.Errorf("check: execution only ran %d < %d rounds; non-decision is not yet a violation",
				e.Rounds, roundBound)
		}
	case "weak-validity":
		if !e.Faulty.Empty() {
			return fmt.Errorf("check: weak-validity violation requires a fully correct execution")
		}
		u, err := omission.UniformProposal(e)
		if err != nil {
			return fmt.Errorf("check: weak-validity violation requires unanimous proposals: %w", err)
		}
		d, ok := e.Decision(v.Witness2)
		if !ok {
			return fmt.Errorf("check: weak-validity witness undecided")
		}
		if d == u {
			return fmt.Errorf("check: witness decided the unanimous proposal %q; no violation", u)
		}
	default:
		return fmt.Errorf("check: unknown violation kind %q", v.Kind)
	}
	return nil
}

// Lift is the pair of uniform fully-correct proposals (V0, V1) Algorithm 1
// feeds an agreement protocol for weak proposals 0 and 1. The zero Lift
// means the protocol already solves weak consensus and is falsified as is.
type Lift struct{ V0, V1 msg.Value }

// Candidate is a protocol handed to the lower bound: how to build and lift
// it, and what the falsifier is expected to find.
type Candidate struct {
	Name string
	// Sound records whether the protocol is believed correct (the falsifier
	// must certify budget) or deliberately cheap (must be falsified).
	Sound bool
	// Complexity describes the protocol's message complexity for tables.
	Complexity string
	// Build returns the honest-machine factory and the decision-round bound
	// at (n, t); catalog.Spec.Rebuilder returns one.
	Build func(n, t int) (sim.Factory, int, error)
	// Lift, when set, runs the protocol through Algorithm 1 first.
	Lift Lift
}

// String renders the candidate for reports: its name and complexity.
func (c Candidate) String() string {
	return fmt.Sprintf("%s (%s)", c.Name, c.Complexity)
}

// Lifted builds c at (n, t) and lifts it through Algorithm 1 when c.Lift
// is set (Lemma 18: no extra message). inner is the protocol as built,
// weak the weak consensus protocol on top of it (inner itself when Lift
// is zero), and rounds the decision-round bound both share.
func (c Candidate) Lifted(n, t int) (inner, weak sim.Factory, rounds int, err error) {
	inner, rounds, err = c.Build(n, t)
	if err != nil || c.Lift == (Lift{}) {
		return inner, inner, rounds, err
	}
	spec, err := reduction.DeriveAlg1(inner, n, t, sim.Horizon(rounds), msg.Uniform(n, c.Lift.V0), msg.Uniform(n, c.Lift.V1))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", c.Name, err)
	}
	return inner, reduction.WeakFromAgreement(inner, spec), rounds, nil
}

// Run is the one route from a protocol to Theorems 2 and 3: build and
// lift c at (n, t) with Lifted, run Falsify, and recheck any certificate
// with CheckViolation. A broken protocol is a report, not an error.
func (c Candidate) Run(n, t int, opts Options) (*Report, error) {
	_, factory, rounds, err := c.Lifted(n, t)
	if err != nil {
		return nil, err
	}
	rep, err := Falsify(c.Name, factory, rounds, n, t, opts)
	if err != nil {
		return nil, err
	}
	if rep.Broken() {
		if err := CheckViolation(rep.Violation, factory, rounds); err != nil {
			return nil, fmt.Errorf("%s: certificate failed independent recheck: %w", c.Name, err)
		}
	}
	return rep, nil
}
