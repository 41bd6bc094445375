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
	"cmp"
	"encoding/json"
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

// slotStepper is the optional method of a sub-machine that can take, with
// its inbox, a msg.Slot per message (parallel to the inbox): where it would
// decode received[i].Payload it loads slots[i] and stores there what it
// decoded, so a payload broadcast to n multiplexers is decoded once.
type slotStepper interface {
	StepSlots(round int, received []msg.Message, slots []*msg.Slot) []sim.Outgoing
}

// Machine multiplexes k sub-machines over the single-message-per-peer
// channel model.
type Machine struct {
	sim.DecideOnce // set once every sub-machine has decided

	subs    []sim.Machine
	combine Combiner
	// order lists the instances in the order encoding/json writes their
	// bundle keys: as strings, "10" before "2".
	order []int

	// Working state, reused from call to call: sim.Machine lets a machine
	// rewrite the slice it returned, and gives a sub-machine its inbox for
	// the duration of Step only. rest[j] is what is left to deliver of the
	// j-th received bundle; inbox and slots are the one inbox every
	// instance is lent in turn; per[i] is what sub-machine i returned in
	// this call. to lists this call's receivers in ascending order, and the
	// receiver × instance table is flat: has[r*k+i] says instance i wrote
	// to receiver to[r], cell[r*k+i] what.
	rest  [][]route
	inbox []msg.Message
	slots []*msg.Slot
	per   [][]sim.Outgoing
	to    []proc.ID
	cell  []string
	has   []bool
	out   []sim.Outgoing
	buf   []byte
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
	return &Machine{subs: subs, combine: combine, order: order, per: make([][]sim.Outgoing, len(subs))}
}

// route is one inner payload of a bundle body with the instance its key
// names, and the slot every receiver of that body shares for its decoding.
type route struct {
	instance int
	payload  string
	slot     msg.Slot
}

// routes is a bundle body {"I":{key:payload,…}} in the form Step consumes:
// an entry per key that strconv.Atoi reads as a non-negative instance,
// ordered by instance and, where a Byzantine sender spelt one instance
// twice ("0" and "00"), by key — the order in which a walk over the sorted
// keys delivers to each instance, and one that does not depend on map
// order. Instances no multiplexer has are kept: the body does not know k.
type routes []route

// UnmarshalJSON accepts what encoding/json accepts for
// struct{ I map[string]string }.
func (r *routes) UnmarshalJSON(body []byte) error {
	var b struct{ I map[string]string }
	if err := json.Unmarshal(body, &b); err != nil {
		return err
	}
	type addressed struct {
		instance     int
		key, payload string
	}
	to := make([]addressed, 0, len(b.I))
	for key, payload := range b.I {
		if instance, err := strconv.Atoi(key); err == nil && instance >= 0 {
			to = append(to, addressed{instance, key, payload})
		}
	}
	slices.SortFunc(to, func(a, b addressed) int {
		if c := cmp.Compare(a.instance, b.instance); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	*r = make(routes, len(to)) // filled in place: a slot is never copied
	for i, a := range to {
		(*r)[i].instance, (*r)[i].payload = a.instance, a.payload
	}
	return nil
}

// decodeBundle memoizes bundle routing (msg.CachedDecoder): the demux hot
// path sees the same bundle bodies over and over, n - 1 times within a run
// and again across probe sweeps. Routed bundles are shared; all but their
// slots is read-only.
var decodeBundle = msg.CachedDecoder[routes]()

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
	// Every routed bundle is in instance order, so one pass over the
	// instances consumes each bundle from the front. A message per sender
	// is all an honest instance's inbox holds (a colliding bundle grows it
	// on its own).
	inbox, slots := slices.Grow(m.inbox[:0], len(received)), slices.Grow(m.slots[:0], len(received))
	rest := slices.Grow(m.rest[:0], len(received))
	for _, outerMsg := range received {
		var rs []route // malformed bundle from a Byzantine sender: nothing to deliver
		if b, ok := decodeBundle(outerMsg.Payload); ok {
			rs = *b
		}
		rest = append(rest, rs)
	}
	for i, s := range m.subs {
		inbox, slots = inbox[:0], slots[:0]
		sorted := true
		for j, outerMsg := range received {
			rs := rest[j]
			for ; len(rs) > 0 && rs[0].instance == i; rs = rs[1:] {
				im := msg.Message{
					Sender:   outerMsg.Sender,
					Receiver: outerMsg.Receiver,
					Round:    outerMsg.Round,
					Payload:  rs[0].payload,
				}
				sorted = sorted && (len(inbox) == 0 || inbox[len(inbox)-1].Key().Compare(im.Key()) < 0)
				inbox, slots = append(inbox, im), append(slots, &rs[0].slot)
			}
			rest[j] = rs
		}
		if ss, ok := s.(slotStepper); ok && sorted {
			m.per[i] = ss.StepSlots(round, inbox, slots)
			continue
		}
		if !sorted {
			// Two messages under one key, or an outer inbox the engine did
			// not order: the sort leaves no message beside its slot.
			msg.Sort(inbox)
		}
		m.per[i] = s.Step(round, inbox)
	}
	m.rest, m.inbox, m.slots = rest, inbox, slots
	m.refreshDecision()
	return m.muxOutgoing()
}

func (m *Machine) refreshDecision() {
	if _, ok := m.Decision(); ok {
		return
	}
	for _, s := range m.subs {
		if _, ok := s.Decision(); !ok {
			return
		}
	}
	decisions := make([]msg.Value, len(m.subs))
	for i, s := range m.subs {
		decisions[i], _ = s.Decision()
	}
	m.Decide(m.combine(decisions))
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

// Quiescent implements sim.Machine: the composite is quiet when every
// sub-machine is.
func (m *Machine) Quiescent() bool {
	for _, s := range m.subs {
		if !s.Quiescent() {
			return false
		}
	}
	return true
}
