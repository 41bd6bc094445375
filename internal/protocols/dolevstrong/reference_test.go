package dolevstrong_test

import (
	"sort"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/sim"
)

// The implementation that preceded the direct chain writer, verbatim
// (msg.Encode per broadcast, the accepted chain re-found and re-verified
// by chainFor, a map per chain check): the oracle
// TestDolevStrongMatchesReference and FuzzDolevStrongMatchesReference hold
// the product machine to, byte for byte.

// decodePayload is the reference's own memoizing decoder.
var decodePayload = msg.CachedDecoder[dolevstrong.Payload]()

// refNew is the reference honest-machine factory for one broadcast
// instance.
func refNew(cfg dolevstrong.Config) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &machine{cfg: cfg, id: id, proposal: proposal}
	}
}

type machine struct {
	cfg      cfg2
	id       proc.ID
	proposal msg.Value

	extracted []msg.Value
	decided   bool
	decision  msg.Value
	done      bool
}

// cfg2 aliases Config so the struct literal in New stays short.
type cfg2 = dolevstrong.Config

var _ sim.Machine = (*machine)(nil)

func (m *machine) broadcast(items []dolevstrong.Item) []sim.Outgoing {
	if len(items) == 0 {
		return nil
	}
	payload := msg.Encode(dolevstrong.Payload{Items: items})
	out := make([]sim.Outgoing, 0, m.cfg.N-1)
	for p := proc.ID(0); p < proc.ID(m.cfg.N); p++ {
		if p != m.id {
			out = append(out, sim.Outgoing{To: p, Payload: payload})
		}
	}
	return out
}

// Init implements sim.Machine: the sender signs and broadcasts its
// proposal in round 1.
func (m *machine) Init() []sim.Outgoing {
	if m.id != m.cfg.Sender {
		return nil
	}
	m.extracted = append(m.extracted, m.proposal)
	s, err := m.cfg.Scheme.Sign(m.id, dolevstrong.SignedData(m.cfg.Tag, m.proposal))
	if err != nil {
		// An honest machine can always sign for itself; failing to means the
		// harness wired a wrong scheme. Stay silent; the run will surface it.
		return nil
	}
	return m.broadcast([]dolevstrong.Item{{V: m.proposal, C: []dolevstrong.Link{{S: int(m.id), G: s}}}})
}

// validChain checks that item carries round-many valid, distinct
// signatures beginning with the sender.
func (m *machine) validChain(it dolevstrong.Item, round int) bool {
	if len(it.C) != round {
		return false
	}
	if proc.ID(it.C[0].S) != m.cfg.Sender {
		return false
	}
	seen := make(map[int]bool, len(it.C))
	data := dolevstrong.SignedData(m.cfg.Tag, it.V)
	for _, l := range it.C {
		if l.S < 0 || l.S >= m.cfg.N || seen[l.S] {
			return false
		}
		seen[l.S] = true
		if !m.cfg.Scheme.Verify(proc.ID(l.S), data, l.G) {
			return false
		}
	}
	return true
}

func (m *machine) hasExtracted(v msg.Value) bool {
	for _, x := range m.extracted {
		if x == v {
			return true
		}
	}
	return false
}

// Step implements sim.Machine.
func (m *machine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.done {
		return nil
	}
	var newlyAccepted []msg.Value
	for _, rm := range received {
		p, ok := decodePayload(rm.Payload)
		if !ok {
			continue // garbage from a Byzantine peer
		}
		for _, it := range p.Items {
			if len(m.extracted) >= 2 || m.hasExtracted(it.V) {
				continue
			}
			if !m.validChain(it, round) {
				continue
			}
			inChain := false
			for _, l := range it.C {
				if proc.ID(l.S) == m.id {
					inChain = true
					break
				}
			}
			if inChain {
				continue
			}
			m.extracted = append(m.extracted, it.V)
			newlyAccepted = append(newlyAccepted, it.V)
		}
	}

	if round >= dolevstrong.RoundBound(m.cfg.T) {
		// End of round t+1: decide.
		if len(m.extracted) == 1 {
			m.decision = m.extracted[0]
		} else {
			m.decision = m.cfg.Default
		}
		m.decided, m.done = true, true
		return nil
	}

	// Forward newly accepted values in round+1 with our signature appended.
	if m.cfg.UnsafeNoRelay {
		return nil
	}
	sort.Slice(newlyAccepted, func(i, j int) bool { return newlyAccepted[i] < newlyAccepted[j] })
	items := make([]dolevstrong.Item, 0, len(newlyAccepted))
	for _, v := range newlyAccepted {
		s, err := m.cfg.Scheme.Sign(m.id, dolevstrong.SignedData(m.cfg.Tag, v))
		if err != nil {
			continue
		}
		chain := m.chainFor(v, received, round)
		if chain == nil {
			continue
		}
		items = append(items, dolevstrong.Item{V: v, C: append(chain, dolevstrong.Link{S: int(m.id), G: s})})
	}
	return m.broadcast(items)
}

// chainFor recovers the valid chain that caused v's acceptance this round.
func (m *machine) chainFor(v msg.Value, received []msg.Message, round int) []dolevstrong.Link {
	for _, rm := range received {
		p, ok := decodePayload(rm.Payload)
		if !ok {
			continue
		}
		for _, it := range p.Items {
			if it.V != v || !m.validChain(it, round) {
				continue
			}
			return append([]dolevstrong.Link{}, it.C...)
		}
	}
	return nil
}

// Decision implements sim.Machine.
func (m *machine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.decision, true
}

// Quiescent implements sim.Machine.
func (m *machine) Quiescent() bool { return m.done }
