package phaseking

import (
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// The machine that preceded the two-counter tally and the lent outgoing
// slice, Step and broadcast verbatim (a map[msg.Value]int built per
// exchange round, a fresh []sim.Outgoing per broadcast): the oracle
// TestPhaseKingMatchesReference and FuzzPhaseKingMatchesReference hold the
// product machine to, message for message. It shares the product's
// payload bytes, decodeV, king and phaseOf, none of which changed.

// refNew is the reference honest-machine factory.
func refNew(cfg Config) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		pref := proposal
		if !msg.IsBit(pref) {
			pref = msg.Zero
		}
		return &refMachine{cfg: cfg, id: id, pref: pref}
	}
}

type refMachine struct {
	cfg  Config
	id   proc.ID
	pref msg.Value

	maj  msg.Value
	mult int

	decided  bool
	decision msg.Value
	done     bool
}

var _ sim.Machine = (*refMachine)(nil)

func (m *refMachine) broadcast(v msg.Value) []sim.Outgoing {
	var body string
	switch v {
	case msg.Zero:
		body = bodyZero
	case msg.One:
		body = bodyOne
	default:
		body = msg.Encode(payload{V: v})
	}
	out := make([]sim.Outgoing, 0, m.cfg.N-1)
	for p := proc.ID(0); p < proc.ID(m.cfg.N); p++ {
		if p != m.id {
			out = append(out, sim.Outgoing{To: p, Payload: body})
		}
	}
	return out
}

// Init implements sim.Machine: round 1 is the first exchange of phase 1.
func (m *refMachine) Init() []sim.Outgoing {
	return m.broadcast(m.pref)
}

// Step implements sim.Machine.
func (m *refMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.done {
		return nil
	}
	phase, second := phaseOf(round)

	if !second {
		// End of the exchange round: tally preferences (own included).
		counts := map[msg.Value]int{m.pref: 1}
		for _, rm := range received {
			v, ok := decodeV(rm.Payload)
			if !ok {
				continue
			}
			counts[v]++
		}
		if counts[msg.Zero] >= counts[msg.One] {
			m.maj, m.mult = msg.Zero, counts[msg.Zero]
		} else {
			m.maj, m.mult = msg.One, counts[msg.One]
		}
		if king(phase) == m.id {
			return m.broadcast(m.maj) // king round
		}
		return nil
	}

	// End of the king round: adopt.
	kingValue := m.maj // the king trusts its own tally
	if king(phase) != m.id {
		kingValue = msg.Zero // default when the king stays silent
		for _, rm := range received {
			if rm.Sender != king(phase) {
				continue
			}
			if v, ok := decodeV(rm.Payload); ok {
				kingValue = v
			}
		}
	}
	if 2*m.mult > m.cfg.N+2*m.cfg.T {
		m.pref = m.maj
	} else {
		m.pref = kingValue
	}

	if phase >= m.cfg.phases() {
		m.decision, m.decided, m.done = m.pref, true, true
		return nil
	}
	return m.broadcast(m.pref) // next phase's exchange round
}

// Decision implements sim.Machine.
func (m *refMachine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.decision, true
}

// Quiescent implements sim.Machine.
func (m *refMachine) Quiescent() bool { return m.done }
