package dolevstrong

import (
	"expensive/internal/catalog"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// The catalog entry: authenticated Byzantine broadcast with a designated
// sender, the maximum-resilience substrate (any t < n).
func init() {
	catalog.Register(catalog.Spec{
		ID:           "dolev-strong",
		Title:        "Dolev-Strong authenticated broadcast, designated sender",
		Model:        catalog.Authenticated,
		Condition:    "t < n",
		NeedsScheme:  true,
		NeedsSender:  true,
		NeedsDefault: true,
		Rounds:       func(n, t int) int { return RoundBound(t) },
		New: func(p catalog.Params) (sim.Factory, error) {
			return New(Config{N: p.N, T: p.T, Sender: p.Sender, Scheme: p.Scheme, Tag: "bb", Default: p.Default}), nil
		},
		Validity: func(p catalog.Params) validity.Check {
			return validity.AdmissibleCheck(validity.Broadcast(p.N, p.T, p.Sender))
		},
	})
}
