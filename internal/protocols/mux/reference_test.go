package mux_test

import (
	"sort"
	"strconv"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// The implementation that preceded the direct bundle writer, verbatim (a
// map per receiver, msg.Encode per bundle): the oracle
// TestMuxMatchesReference and FuzzMuxMatchesReference hold the product
// machine to, byte for byte.

// Machine multiplexes k sub-machines over the single-message-per-peer
// channel model.
type Machine struct {
	subs []sim.Machine

	decided  bool
	decision msg.Value
}

var _ sim.Machine = (*Machine)(nil)

// refNew builds the reference multiplexed machine over subs.
func refNew(subs []sim.Machine) *Machine {
	return &Machine{subs: subs}
}

type bundle struct {
	// I maps instance index (decimal string, for canonical JSON ordering)
	// to the inner payload.
	I map[string]string
}

// decodeBundle memoizes bundle decoding (msg.CachedDecoder): the demux hot
// path sees the same bundle bodies over and over across probe sweeps.
// Decoded bundles are shared and read-only; demux iterates I in sorted
// key order, so the shared map is never a source of nondeterminism even
// for adversarial bundles with colliding keys.
var decodeBundle = msg.CachedDecoder[bundle]()

// Init implements sim.Machine.
func (m *Machine) Init() []sim.Outgoing {
	perInstance := make([][]sim.Outgoing, len(m.subs))
	for i, s := range m.subs {
		perInstance[i] = s.Init()
	}
	return m.muxOutgoing(perInstance)
}

// Step implements sim.Machine.
func (m *Machine) Step(round int, received []msg.Message) []sim.Outgoing {
	// Demultiplex: per instance, per sender, the synthetic inner message.
	inner := make([][]msg.Message, len(m.subs))
	for _, outerMsg := range received {
		b, ok := decodeBundle(outerMsg.Payload)
		if !ok {
			continue // malformed bundle from a Byzantine sender: ignore
		}
		// Iterate bundle keys in sorted order: a Byzantine sender can put
		// colliding keys in one bundle ("0" and "00" both decode to
		// instance 0), and map order would then make the inner inbox —
		// and everything downstream — nondeterministic.
		keys := make([]string, 0, len(b.I))
		for key := range b.I {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			idx, err := strconv.Atoi(key)
			if err != nil || idx < 0 || idx >= len(m.subs) {
				continue
			}
			inner[idx] = append(inner[idx], msg.Message{
				Sender:   outerMsg.Sender,
				Receiver: outerMsg.Receiver,
				Round:    outerMsg.Round,
				Payload:  b.I[key],
			})
		}
	}
	perInstance := make([][]sim.Outgoing, len(m.subs))
	for i, s := range m.subs {
		msg.Sort(inner[i])
		perInstance[i] = s.Step(round, inner[i])
	}
	m.refreshDecision()
	return m.muxOutgoing(perInstance)
}

func (m *Machine) refreshDecision() {
	if m.decided {
		return
	}
	decisions := make([]msg.Value, len(m.subs))
	for i, s := range m.subs {
		v, ok := s.Decision()
		if !ok {
			return
		}
		decisions[i] = v
	}
	m.decided, m.decision = true, msg.EncodeVector(decisions)
}

func (m *Machine) muxOutgoing(perInstance [][]sim.Outgoing) []sim.Outgoing {
	byReceiver := make(map[proc.ID]*bundle)
	var order []proc.ID
	for i, outs := range perInstance {
		key := strconv.Itoa(i)
		for _, o := range outs {
			b, ok := byReceiver[o.To]
			if !ok {
				b = &bundle{I: make(map[string]string)}
				byReceiver[o.To] = b
				order = append(order, o.To)
			}
			b.I[key] = o.Payload
		}
	}
	proc.SortIDs(order)
	out := make([]sim.Outgoing, 0, len(order))
	for _, to := range order {
		out = append(out, sim.Outgoing{To: to, Payload: msg.Encode(byReceiver[to])})
	}
	return out
}

// Decision implements sim.Machine.
func (m *Machine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.decision, true
}

// Quiescent implements sim.Machine.
func (m *Machine) Quiescent() bool {
	for _, s := range m.subs {
		if !s.Quiescent() {
			return false
		}
	}
	return true
}
