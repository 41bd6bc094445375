package solve

import (
	"fmt"

	"expensive/internal/adversary"
	"expensive/internal/validity"
)

// HuntCampaign builds a campaign that hunts a problem's derived protocol:
// the adversary attacks the Algorithm 2 synthesis while every probe
// checks Termination, Agreement, and the problem's own validity property
// (the decision must be admissible under the correct processes' input
// configuration). Proposals are drawn seed-deterministically from the
// problem's input domain.
//
// This used to live in package adversary as ForProblem; it moved here so
// the adversary layer stays below the protocol catalog in the import
// graph (catalog → adversary, solve → catalog).
func HuntCampaign(p validity.Problem, d *Derived, strategy adversary.Strategy, seeds adversary.SeedRange) (*adversary.Campaign, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d == nil || d.Factory == nil {
		return nil, fmt.Errorf("solve: problem %s has no derived protocol", p.Name)
	}
	return &adversary.Campaign{
		Target: adversary.Target{
			Protocol: p.Name + "/" + d.Mode,
			Factory:  d.Factory,
			Rounds:   d.Rounds,
			N:        p.N,
			T:        p.T,
			Validity: validity.AdmissibleCheck(p),
		},
		Strategy:  strategy,
		Seeds:     seeds,
		Proposals: adversary.DomainProposals(p.Inputs),
	}, nil
}
