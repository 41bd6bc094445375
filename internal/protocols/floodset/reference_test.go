package floodset

import (
	"slices"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// The machine that preceded the constant bit-set bodies and W stored
// inside the machine: the oracle TestFloodSetMatchesReference and
// FuzzFloodSetMatchesReference hold New and NewEarlyStopping to, message
// for message. Every body it sends goes through msg.Encode, every body it
// receives through msg.Decode (nothing memoized, nothing skipped), W is a
// slice of its own, and every broadcast is a fresh slice. It shares only
// the payload type and RoundBound with the product.

// refNew is the reference FloodSet factory.
func refNew(cfg Config) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &refMachine{cfg: cfg, id: id, w: []msg.Value{proposal}}
	}
}

// refNewEarlyStopping is the reference early-stopping factory.
func refNewEarlyStopping(cfg Config) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &refMachine{cfg: cfg, id: id, w: []msg.Value{proposal}, early: true}
	}
}

type refMachine struct {
	cfg   Config
	id    proc.ID
	early bool
	w     []msg.Value // ascending

	decided  bool
	decision msg.Value

	// The early-stopping rule's state.
	prevHeard proc.Set
	hasPrev   bool
	done      bool
}

var _ sim.Machine = (*refMachine)(nil)

func (m *refMachine) absorb(body string) {
	var p payload
	if err := msg.Decode(body, &p); err != nil {
		return
	}
	for _, v := range p.W {
		if !slices.Contains(m.w, v) {
			m.w = append(m.w, v)
			slices.Sort(m.w)
		}
	}
}

func (m *refMachine) broadcast() []sim.Outgoing {
	body := msg.Encode(payload{W: m.w})
	out := make([]sim.Outgoing, 0, m.cfg.N-1)
	for p := proc.ID(0); p < proc.ID(m.cfg.N); p++ {
		if p != m.id {
			out = append(out, sim.Outgoing{To: p, Payload: body})
		}
	}
	return out
}

func (m *refMachine) decide() {
	if !m.decided {
		m.decided, m.decision = true, m.w[0]
	}
}

// Init implements sim.Machine.
func (m *refMachine) Init() []sim.Outgoing { return m.broadcast() }

// Step implements sim.Machine.
func (m *refMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.Quiescent() {
		return nil
	}
	var heard proc.Set
	for _, rm := range received {
		heard = heard.Add(rm.Sender)
		m.absorb(rm.Payload)
	}
	last := round >= RoundBound(m.cfg.T)
	if m.early {
		clean := m.hasPrev && heard.Equal(m.prevHeard)
		m.prevHeard, m.hasPrev = heard, true
		if clean || last {
			m.decide()
		}
		if last {
			m.done = true
			return nil
		}
		return m.broadcast()
	}
	if last {
		m.decide()
		return nil
	}
	return m.broadcast()
}

// Decision implements sim.Machine.
func (m *refMachine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.decision, true
}

// Quiescent implements sim.Machine.
func (m *refMachine) Quiescent() bool {
	if m.early {
		return m.done
	}
	return m.decided
}
