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
//
// Every instance is a Broadcaster: in each call it hands the multiplexer
// one body for every process but its own, or nothing. Sending, the
// multiplexer writes the bodies of the instances that spoke into one
// bundle and broadcasts that one string. Receiving, the n - 1 receivers of
// it find its routing by identity: msg.CachedDecoder keeps, for bodies of
// 1 KiB and more, up to 256 recently routed strings by their data pointer,
// and a hit needs the same pointer and length. An entry holds its string,
// so no other bytes can take its address while it stands; only the first
// receiver hashes the body (about 17 KB at n = 70).
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

// Broadcaster is a sub-machine. Each call returns the one body it sends
// to every process but the multiplexer's own, or ok = false for silence.
//
// StepBody is sim.Machine's Step with a msg.Slot for each received
// message, parallel to received: where the instance would decode
// received[i].Payload it loads slots[i] and stores there what it decoded,
// so a payload broadcast to n multiplexers is decoded once. A nil slot is
// always empty. The inbox and its slots are lent for the call only.
type Broadcaster interface {
	InitBody() (body string, ok bool)
	StepBody(round int, received []msg.Message, slots []*msg.Slot) (body string, ok bool)
	Decision() (msg.Value, bool)
	Quiescent() bool
}

// Machine multiplexes k sub-machines over the single-message-per-peer
// channel model.
type Machine struct {
	sim.DecideOnce // set once every sub-machine has decided

	n       int
	self    proc.ID
	subs    []Broadcaster
	combine Combiner
	// order lists the instances in the order encoding/json writes their
	// bundle keys: as strings, "10" before "2".
	order []int

	// Working state, reused from call to call: sim.Machine lets a machine
	// rewrite the slice it returned, and a sub-machine holds its inbox for
	// the duration of StepBody only. rest[j] is what is left to deliver of
	// the j-th received bundle; inbox and slots are the one inbox every
	// instance is lent in turn; body[i] is what instance i said in this
	// call, if said[i].
	rest  [][]route
	inbox []msg.Message
	slots []*msg.Slot
	body  []string
	said  []bool
	out   sim.Broadcast
	buf   []byte
}

var _ sim.Machine = (*Machine)(nil)

// New builds process self's multiplexed machine, of n processes, over subs.
// The composite decides once every sub-machine has decided, combining
// their decisions with combine.
func New(n int, self proc.ID, subs []Broadcaster, combine Combiner) *Machine {
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(strconv.Itoa(a), strconv.Itoa(b)) })
	return &Machine{n: n, self: self, subs: subs, combine: combine, order: order,
		body: make([]string, len(subs)), said: make([]bool, len(subs))}
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
		m.body[i], m.said[i] = s.InitBody()
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
		if !sorted {
			// Two messages under one key, or an outer inbox the engine did
			// not order: the sort parts messages from their slots, so the
			// instance gets nil ones.
			msg.Sort(inbox)
			clear(slots)
		}
		m.body[i], m.said[i] = s.StepBody(round, inbox, slots)
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

// muxOutgoing broadcasts what the sub-machines said in this call as one
// bundle; none spoke, no messages.
func (m *Machine) muxOutgoing() []sim.Outgoing {
	if !slices.Contains(m.said, true) {
		return nil
	}
	return m.out.Send(m.n, m.self, m.bundle())
}

// bundle is msg.Encode(bundle{I: …}) of what the sub-machines said in this
// call, written directly into a buffer sized for it up front: each body
// that was said, with a backslash before each of its quotes and
// backslashes, under its key.
func (m *Machine) bundle() string {
	size := len(`{"I":{}}`)
	for i, p := range m.body {
		if !m.said[i] {
			continue
		}
		size += len(`,"0":""`) + len(p) + strings.Count(p, `"`) + strings.Count(p, `\`)
		for d := i; d >= 10; d /= 10 {
			size++
		}
	}
	b := append(slices.Grow(m.buf[:0], size), `{"I":{`...)
	for _, i := range m.order {
		if !m.said[i] {
			continue
		}
		if len(b) > len(`{"I":{`) {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `":`...)
		b = msg.AppendString(b, m.body[i])
	}
	m.buf = append(b, "}}"...)
	return string(m.buf)
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
