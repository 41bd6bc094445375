package phaseking

import (
	"expensive/internal/catalog"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// The catalog entry: binary strong consensus with polynomial messages,
// the library's unauthenticated matching protocol (n > 4t).
func init() {
	catalog.Register(catalog.Spec{
		ID:        "phase-king",
		Title:     "Phase-King binary strong consensus, polynomial messages",
		Model:     catalog.Unauthenticated,
		Condition: "n > 4t",
		Supports:  func(n, t int) bool { return n > 4*t },
		Rounds:    func(n, t int) int { return RoundBound(t) },
		New: func(p catalog.Params) (sim.Factory, error) {
			return New(Config{N: p.N, T: p.T}), nil
		},
		Validity: func(p catalog.Params) validity.Check { return validity.AdmissibleCheck(validity.Strong(p.N, p.T)) },
	})
}
