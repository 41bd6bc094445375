// Package mux composes several independent protocol instances into a
// single machine per process.
//
// The computational model (Appendix A.1) allows at most one message per
// sender/receiver pair per round, so running n parallel Byzantine
// broadcast instances — as interactive consistency does — requires
// bundling the per-instance messages into one payload. The multiplexer
// does exactly that: a payload is the JSON object {"I":{"0":"…","1":"…"}}
// from instance index to inner payload, keys in the order encoding/json
// sorts them, and received bundles are demultiplexed back into
// per-instance synthetic messages.
package mux

import (
	"slices"
	"strconv"
	"strings"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Combiner folds the decisions of all sub-machines (in instance order)
// into the composite decision.
type Combiner func(sub []msg.Value) msg.Value

// VectorCombiner encodes the sub-decisions as an I_n vector — the natural
// combiner for interactive consistency.
func VectorCombiner(sub []msg.Value) msg.Value { return msg.EncodeVector(sub) }

// Machine multiplexes k sub-machines over the single-message-per-peer
// channel model.
type Machine struct {
	subs    []sim.Machine
	combine Combiner
	// order lists the instances in the order encoding/json writes their
	// bundle keys: as strings, "10" before "2".
	order []int

	// Working state, reused from call to call: sim.Machine lets a machine
	// rewrite the slice it returned, and gives a sub-machine its inbox for
	// the duration of Step only. inner[i] is instance i's inbox and keys a
	// bundle's sorted keys; per[i] is what sub-machine i returned in this
	// call. to lists this call's receivers in ascending order, and the
	// receiver × instance table is flat: has[r*k+i] says instance i wrote
	// to receiver to[r], cell[r*k+i] what.
	inner [][]msg.Message
	keys  []string
	per   [][]sim.Outgoing
	to    []proc.ID
	cell  []string
	has   []bool
	out   []sim.Outgoing
	buf   []byte

	decided  bool
	decision msg.Value
}

var _ sim.Machine = (*Machine)(nil)

// New builds a multiplexed machine over subs. The composite decides once
// every sub-machine has decided, combining their decisions with combine.
func New(subs []sim.Machine, combine Combiner) *Machine {
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(strconv.Itoa(a), strconv.Itoa(b)) })
	return &Machine{
		subs: subs, combine: combine, order: order,
		inner: make([][]msg.Message, len(subs)), per: make([][]sim.Outgoing, len(subs)),
	}
}

type bundle struct {
	// I maps instance index (a decimal string) to the inner payload.
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
	for i, s := range m.subs {
		m.per[i] = s.Init()
	}
	return m.muxOutgoing()
}

// Step implements sim.Machine.
func (m *Machine) Step(round int, received []msg.Message) []sim.Outgoing {
	// Demultiplex: per instance, per sender, the synthetic inner message.
	inner := m.inner
	if len(inner) > 0 && cap(inner[0]) == 0 {
		// First Step: carve the inboxes out of one array, a message per
		// sender each (a colliding bundle grows its inbox on its own).
		slab := make([]msg.Message, len(inner)*len(received))
		for i := range inner {
			inner[i] = slab[i*len(received) : i*len(received) : (i+1)*len(received)]
		}
	}
	for i := range inner {
		inner[i] = inner[i][:0]
	}
	for _, outerMsg := range received {
		b, ok := decodeBundle(outerMsg.Payload)
		if !ok {
			continue // malformed bundle from a Byzantine sender: ignore
		}
		// Iterate bundle keys in sorted order: a Byzantine sender can put
		// colliding keys in one bundle ("0" and "00" both decode to
		// instance 0), and map order would then make the inner inbox —
		// and everything downstream — nondeterministic.
		keys := m.keys[:0]
		for key := range b.I {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		m.keys = keys
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
	for i, s := range m.subs {
		msg.Sort(inner[i])
		m.per[i] = s.Step(round, inner[i])
	}
	m.refreshDecision()
	return m.muxOutgoing()
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
	m.decided, m.decision = true, m.combine(decisions)
}

// insertBlock opens k zero elements at s[at:at+k].
func insertBlock[T any](s []T, at, k int) []T {
	s = slices.Grow(s, k)[:len(s)+k]
	copy(s[at+k:], s[at:])
	clear(s[at : at+k])
	return s
}

// muxOutgoing bundles what the sub-machines returned in this call (m.per)
// into one message per receiver, ascending. It has copied every payload
// out of the sub-machines' slices when it returns, so they are free to
// rewrite them on their next call.
func (m *Machine) muxOutgoing() []sim.Outgoing {
	k := len(m.subs)
	rows := 0 // a broadcasting instance names every receiver there will be
	for _, outs := range m.per {
		rows = max(rows, len(outs))
	}
	m.to, m.cell, m.has = slices.Grow(m.to[:0], rows), slices.Grow(m.cell[:0], rows*k), slices.Grow(m.has[:0], rows*k)
	m.out = slices.Grow(m.out[:0], rows)
	for i, outs := range m.per {
		for _, o := range outs {
			r, found := slices.BinarySearch(m.to, o.To)
			if !found {
				m.to = slices.Insert(m.to, r, o.To)
				m.cell = insertBlock(m.cell, r*k, k)
				m.has = insertBlock(m.has, r*k, k)
			}
			// An instance that names a receiver twice keeps its last word.
			m.cell[r*k+i], m.has[r*k+i] = o.Payload, true
		}
	}
	for r, to := range m.to {
		cell, has := m.cell[r*k:(r+1)*k], m.has[r*k:(r+1)*k]
		// Honest instances broadcast, so a receiver's row is usually the
		// previous receiver's: one encoding serves them all.
		if r > 0 && slices.Equal(has, m.has[(r-1)*k:r*k]) && slices.Equal(cell, m.cell[(r-1)*k:r*k]) {
			m.out = append(m.out, sim.Outgoing{To: to, Payload: m.out[r-1].Payload})
			continue
		}
		// msg.Encode(bundle{I: …}), written directly.
		size := len(`{"I":{}}`)
		for _, p := range cell {
			size += len(`"10":"",`) + len(p)
		}
		b := append(slices.Grow(m.buf[:0], size), `{"I":{`...)
		for _, i := range m.order {
			if !has[i] {
				continue
			}
			if len(b) > len(`{"I":{`) {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `":`...)
			b = msg.AppendString(b, cell[i])
		}
		m.buf = append(b, "}}"...)
		m.out = append(m.out, sim.Outgoing{To: to, Payload: string(m.buf)})
	}
	return m.out
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
