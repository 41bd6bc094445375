package floodset

import (
	"expensive/internal/catalog"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// The catalog entries: both FloodSet variants. They are registered under
// the crash model — correct below crash faults, deliberately breakable by
// the omission adversary (experiment E10) — which is exactly why matrix
// sweeps want them: they are the negative control of the failure-model
// hierarchy.
func init() {
	weakValidity := func(p catalog.Params) validity.Check { return validity.AdmissibleCheck(validity.Weak(p.N, p.T)) }
	catalog.Register(catalog.Spec{
		ID:        "floodset",
		Title:     "FloodSet crash-model consensus (min of seen values)",
		Model:     catalog.CrashOnly,
		Condition: "t < n (crash faults)",
		Rounds:    func(n, t int) int { return RoundBound(t) },
		New: func(p catalog.Params) (sim.Factory, error) {
			return New(Config{N: p.N, T: p.T}), nil
		},
		Validity: weakValidity,
	})
	catalog.Register(catalog.Spec{
		ID:        "floodset-early",
		Title:     "early-stopping FloodSet (decides in f+2 rounds under f crashes)",
		Model:     catalog.CrashOnly,
		Condition: "t < n (crash faults)",
		Rounds:    func(n, t int) int { return RoundBound(t) },
		New: func(p catalog.Params) (sim.Factory, error) {
			return NewEarlyStopping(Config{N: p.N, T: p.T}), nil
		},
		Validity: weakValidity,
	})
}
