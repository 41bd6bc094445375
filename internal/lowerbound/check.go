package lowerbound

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/protocols/reduction"
	"expensive/internal/sim"
)

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
// with Report.Recheck. A broken protocol is a report, not an error.
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
		if err := rep.Recheck(factory, rounds); err != nil {
			return nil, fmt.Errorf("%s: certificate failed independent recheck: %w", c.Name, err)
		}
	}
	return rep, nil
}
