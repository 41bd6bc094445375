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
// Every instance is a Broadcaster: in each call it appends one body for
// every process but its own to a buffer it is lent, or says nothing.
// Sending, the multiplexer steps its instances in the order of their
// bundle keys, so each body is escaped into the bundle the moment it is
// said, and broadcasts the bundle as one string — the only string a call
// allocates. Receiving, the n - 1 receivers of it find its routing by
// identity: msg.CachedDecoder keeps, for bodies of 1 KiB and more, up to
// 256 recently routed strings by their data pointer, and a hit needs the
// same pointer and length. An entry holds its string, so no other bytes
// can take its address while it stands; only the first receiver hashes
// the body (about 17 KB at n = 70).
//
// The bundle and body buffers come from a small mutex-guarded free list
// that every multiplexer in the process shares, so a fresh machine writes
// into buffers an earlier one grew. It is not a sync.Pool: a race build's
// Pool drops a random quarter of what is put back, and a fresh
// multiplexer's allocations would then depend on chance.
package mux

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"sync"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Broadcaster is a sub-machine. Each call appends the one body it sends
// to every process but the multiplexer's own to dst and returns it, or
// returns dst unchanged with ok = false for silence. dst is lent for the
// call only: the multiplexer escapes the body into its bundle and writes
// the next instance's body over it, in the slice the call returned, which
// must therefore be dst or what append made of it.
//
// StepBody is sim.Machine's Step with a msg.Slot for each received
// message, parallel to received: where the instance would decode
// received[i].Payload it loads slots[i] and stores there what it decoded,
// so a payload broadcast to n multiplexers is decoded once. A nil slot is
// always empty. The inbox and its slots are lent for the call only.
type Broadcaster interface {
	InitBody(dst []byte) (body []byte, ok bool)
	StepBody(round int, received []msg.Message, slots []*msg.Slot, dst []byte) (body []byte, ok bool)
	Decision() (msg.Value, bool)
	Quiescent() bool
}

// Machine multiplexes k sub-machines over the single-message-per-peer
// channel model.
type Machine struct {
	sim.DecideOnce // set once every sub-machine has decided

	n    int
	self proc.ID
	subs []Broadcaster
	// order lists the instances in the order encoding/json writes their
	// bundle keys: as strings, "10" before "2". Every call steps the
	// instances in it, so each body goes into the bundle as it is said.
	order []int

	// Working state, reused from call to call: sim.Machine lets a machine
	// rewrite the slice it returned, and a sub-machine holds its inbox for
	// the duration of StepBody only. rest[j] is what is left to deliver of
	// the j-th received bundle; inbox and slots are the one inbox every
	// instance is lent in turn.
	rest  [][]route
	inbox []msg.Message
	slots []*msg.Slot
	out   sim.Broadcast
}

var _ sim.Machine = (*Machine)(nil)

// New builds process self's multiplexed machine, of n processes, over subs.
// The composite decides once every sub-machine has decided: its decision
// is the I_n vector of their decisions, in instance order
// (msg.EncodeVector).
func New(n int, self proc.ID, subs []Broadcaster) *Machine {
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(strconv.Itoa(a), strconv.Itoa(b)) })
	return &Machine{n: n, self: self, subs: subs, order: order}
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
// ordered by the instance's canonical decimal string — the order of
// Machine.order — and, where a Byzantine sender spelt one instance twice
// ("0" and "00"), by key: the order in which a walk over the sorted keys
// delivers to each instance, and one that does not depend on map order.
// Instances no multiplexer has are kept, because the body does not know k:
// a multiplexer of k instances skips those ≥ k as its walk meets them.
type routes []route

// UnmarshalJSON accepts what encoding/json accepts for
// struct{ I map[string]string }.
func (r *routes) UnmarshalJSON(body []byte) error {
	var b struct{ I map[string]string }
	if err := json.Unmarshal(body, &b); err != nil {
		return err
	}
	type addressed struct {
		instance            int
		canon, key, payload string
	}
	to := make([]addressed, 0, len(b.I))
	for key, payload := range b.I {
		if instance, err := strconv.Atoi(key); err == nil && instance >= 0 {
			to = append(to, addressed{instance, strconv.Itoa(instance), key, payload})
		}
	}
	slices.SortFunc(to, func(a, b addressed) int {
		if c := strings.Compare(a.canon, b.canon); c != 0 {
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
	bufs := spare.take()
	b := append(bufs.bundle[:0], bundleOpen...)
	for _, i := range m.order {
		var ok bool
		bufs.body, ok = m.subs[i].InitBody(bufs.body[:0])
		b = appendBody(b, i, bufs.body, ok)
	}
	return m.broadcast(bufs, b)
}

// Step implements sim.Machine.
func (m *Machine) Step(round int, received []msg.Message) []sim.Outgoing {
	// Demultiplex: per instance, per sender, the synthetic inner message.
	// Every routed bundle is in key order and the instances step in key
	// order, so one pass consumes each bundle from the front. A message
	// per sender is all an honest instance's inbox holds (a colliding
	// bundle grows it on its own).
	inbox, slots := slices.Grow(m.inbox[:0], len(received)), slices.Grow(m.slots[:0], len(received))
	rest := slices.Grow(m.rest[:0], len(received))
	for _, outerMsg := range received {
		var rs []route // malformed bundle from a Byzantine sender: nothing to deliver
		if b, ok := decodeBundle(outerMsg.Payload); ok {
			rs = *b
		}
		rest = append(rest, rs)
	}
	// The engine delivers an inbox in message order, and then so is every
	// instance's unless one bundle routes to it twice.
	ordered := inOrder(received)
	bufs := spare.take()
	b := append(bufs.bundle[:0], bundleOpen...)
	for _, i := range m.order {
		inbox, slots = inbox[:0], slots[:0]
		twice := false
		for j, outerMsg := range received {
			rs := rest[j]
			for len(rs) > 0 && rs[0].instance >= len(m.subs) {
				rs = rs[1:]
			}
			from := len(inbox)
			for ; len(rs) > 0 && rs[0].instance == i; rs = rs[1:] {
				im := msg.Message{
					Sender:   outerMsg.Sender,
					Receiver: outerMsg.Receiver,
					Round:    outerMsg.Round,
					Payload:  rs[0].payload,
				}
				inbox, slots = append(inbox, im), append(slots, &rs[0].slot)
			}
			twice = twice || len(inbox) > from+1
			rest[j] = rs
		}
		if twice || !ordered && !inOrder(inbox) {
			// Two messages under one key, or an outer inbox the engine did
			// not order: the sort parts messages from their slots, so the
			// instance gets nil ones.
			msg.Sort(inbox)
			clear(slots)
		}
		var ok bool
		bufs.body, ok = m.subs[i].StepBody(round, inbox, slots, bufs.body[:0])
		b = appendBody(b, i, bufs.body, ok)
	}
	m.rest, m.inbox, m.slots = rest, inbox, slots
	m.refreshDecision()
	return m.broadcast(bufs, b)
}

// inOrder reports whether ms is strictly in message order (Key.Compare).
func inOrder(ms []msg.Message) bool {
	for j := 1; j < len(ms); j++ {
		if ms[j-1].Key().Compare(ms[j].Key()) >= 0 {
			return false
		}
	}
	return true
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
	m.Decide(msg.EncodeVector(decisions))
}

// bundleOpen starts msg.Encode(bundle{I: …}), which the multiplexer
// writes directly: each body that was said, under its key, through
// appendBody, then "}}".
const bundleOpen = `{"I":{`

// appendBody appends instance i's body to the bundle b, as a JSON string
// under its key, if the instance spoke.
func appendBody(b []byte, i int, body []byte, ok bool) []byte {
	if !ok {
		return b
	}
	if len(b) > len(bundleOpen) {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `":`...)
	return msg.AppendString(b, body)
}

// broadcast closes the bundle b and sends it as one string, the call's one
// allocation once the buffers have grown, then gives bufs, b among them,
// back to the free list. No instance spoke, no messages.
func (m *Machine) broadcast(bufs buffers, b []byte) []sim.Outgoing {
	var out []sim.Outgoing
	if len(b) > len(bundleOpen) {
		b = append(b, "}}"...)
		out = m.out.Send(m.n, m.self, string(b))
	}
	bufs.bundle = b
	spare.release(bufs)
	return out
}

// buffers are the two a call writes into: the bundle, and the body the
// instance stepping at the moment appends to.
type buffers struct{ bundle, body []byte }

// freeList holds up to cap(free) buffers that no call is writing: a call
// takes one pair, or a zero pair if the list is empty, and releases it
// when it has sent the bundle, when a full list drops it.
type freeList struct {
	mu   sync.Mutex
	free []buffers
}

// spare is the free list of every multiplexer in the process: a fresh
// machine's first bundle is written into buffers an earlier machine grew.
var spare = freeList{free: make([]buffers, 0, 16)}

func (l *freeList) take() buffers {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free)
	if k == 0 {
		return buffers{}
	}
	b := l.free[k-1]
	l.free = l.free[:k-1]
	return b
}

func (l *freeList) release(b buffers) {
	l.mu.Lock()
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, b)
	}
	l.mu.Unlock()
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
