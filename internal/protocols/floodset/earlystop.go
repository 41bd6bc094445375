package floodset

import (
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// NewEarlyStopping returns the early-deciding FloodSet variant for the
// crash model: a process decides at the end of the first round r >= 2 in
// which it heard from exactly the same set of processes as in round r-1 —
// a "clean" round with no fresh crash evidence — and at round t+1 at the
// latest. With f <= t actual crashes every correct process decides within
// f+2 rounds, the classical early-stopping guarantee; the worst case stays
// t+1.
//
// The optimization is latency-only: processes keep flooding their value
// sets until round t+1 even after deciding, so slower processes still
// learn everything. This is the E12 demonstration that worst-case bounds
// (Dolev-Strong's fixed t+1 rounds; the paper's Ω(t²) messages) coexist
// with good-case adaptivity on orthogonal metrics.
func NewEarlyStopping(cfg Config) sim.Factory {
	return func(_ proc.ID, proposal msg.Value) sim.Machine {
		m := new(earlyMachine)
		m.init(cfg, proposal)
		return m
	}
}

type earlyMachine struct {
	machine
	prevHeard proc.Set
	hasPrev   bool
	// done is set at round t+1: an early decider keeps flooding until then.
	done bool
}

var _ sim.Machine = (*earlyMachine)(nil)

// Step overrides the base FloodSet step with the early-deciding rule.
func (m *earlyMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.done {
		return nil
	}
	var heard proc.Set
	for i := range received {
		heard = heard.Add(received[i].Sender)
		m.absorb(received[i].Payload)
	}

	clean := m.hasPrev && heard.Equal(m.prevHeard)
	m.prevHeard, m.hasPrev = heard, true

	if clean || round >= RoundBound(m.cfg.T) {
		m.Decide(m.w[0])
	}
	if round >= RoundBound(m.cfg.T) {
		m.done = true
		return nil
	}
	// Keep flooding until round t+1 even when already decided.
	return m.broadcast()
}

// Quiescent implements sim.Machine.
func (m *earlyMachine) Quiescent() bool { return m.done }
