// Fixture for the leantier analyzer: LeanProbe mentions RecordDecisions,
// making it (and everything it reaches) lean-tier code.
package probe

import (
	"expensive/internal/adversary"
	"expensive/internal/omission"
	"expensive/internal/sim"
)

// LeanProbe is a leantier root.
func LeanProbe() error {
	cfg := sim.Config{Recording: sim.RecordDecisions}
	e := sim.Run(cfg)
	if err := omission.Validate(e); err != nil { // want "needs the full message trace"
		return err
	}
	_ = guarded(e)
	_ = e.MessagesSentBy() // lean-safe count path: clean
	return helper(e)
}

// helper is reachable from LeanProbe, so its sink calls are flagged too.
func helper(e *sim.Execution) error {
	if _, err := adversary.Extract(e, nil); err != nil { // want "needs the full message trace"
		return err
	}
	return sim.Conforms(e) // want "needs the full message trace"
}

// guarded is reachable but its sink use is tier-guarded and annotated.
func guarded(e *sim.Execution) []sim.Message {
	if e.Recording != sim.RecordFull {
		return nil
	}
	//balint:allow leantier guarded by the Recording check above
	return e.Behaviors[0].AllSent()
}

// FullProbe never mentions the lean tier: identical calls are clean.
func FullProbe() error {
	e := sim.Run(sim.Config{Recording: sim.RecordFull})
	if err := omission.Validate(e); err != nil {
		return err
	}
	return sim.Conforms(e)
}
