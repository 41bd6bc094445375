package weak

import (
	"expensive/internal/catalog"
	"expensive/internal/protocols/eig"
	"expensive/internal/protocols/ic"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// The catalog entries: the three sound weak consensus constructions, one
// per substrate of the paper's landscape. All of them pay the Theorem 2
// quadratic price — that is experiment E1's point.
func init() {
	weakValidity := func(p catalog.Params) validity.Check { return validity.AdmissibleCheck(validity.Weak(p.N, p.T)) }
	catalog.Register(catalog.Spec{
		ID:          "weak-ic",
		Title:       "weak consensus via authenticated IC + Γ_weak (Algorithm 2)",
		Model:       catalog.Authenticated,
		Condition:   "t < n",
		NeedsScheme: true,
		Rounds:      func(n, t int) int { return ic.RoundBound(t) },
		New: func(p catalog.Params) (sim.Factory, error) {
			f, _ := ViaIC(p.N, p.T, p.Scheme)
			return f, nil
		},
		Validity: weakValidity,
	})
	catalog.Register(catalog.Spec{
		ID:        "weak-eig",
		Title:     "weak consensus via EIG + Γ_weak (Algorithm 2)",
		Model:     catalog.Unauthenticated,
		Condition: "n > 3t",
		Supports:  func(n, t int) bool { return n > 3*t },
		Rounds:    func(n, t int) int { return eig.RoundBound(t) },
		New: func(p catalog.Params) (sim.Factory, error) {
			f, _ := ViaEIG(p.N, p.T)
			return f, nil
		},
		Validity: weakValidity,
	})
	catalog.Register(catalog.Spec{
		ID:        "weak-phase-king",
		Title:     "weak consensus via Phase-King (strong ⇒ weak for binary values)",
		Model:     catalog.Unauthenticated,
		Condition: "n > 4t",
		Supports:  func(n, t int) bool { return n > 4*t },
		Rounds:    func(n, t int) int { return phaseking.RoundBound(t) },
		New: func(p catalog.Params) (sim.Factory, error) {
			f, _ := ViaPhaseKing(p.N, p.T)
			return f, nil
		},
		Validity: weakValidity,
	})
}
