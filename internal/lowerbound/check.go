package lowerbound

import (
	"fmt"

	"expensive/internal/omission"
	"expensive/internal/proc"
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

// Candidate is a weak consensus protocol registered with the experiment
// harness: a constructor plus its decision-round bound and the shape of
// its message complexity for display.
type Candidate struct {
	Name string
	// Sound records whether the protocol is believed correct (the falsifier
	// must certify budget) or deliberately cheap (must be falsified).
	Sound bool
	// Complexity describes the protocol's message complexity for tables.
	Complexity string
	// Rounds returns the decision-round bound for (n, t).
	Rounds func(n, t int) int
	// New builds the factory for (n, t).
	New func(n, t int) (sim.Factory, error)
}

// ExpectedMessages returns a human-readable note for reports.
func (c Candidate) String() string {
	return fmt.Sprintf("%s (%s)", c.Name, c.Complexity)
}
