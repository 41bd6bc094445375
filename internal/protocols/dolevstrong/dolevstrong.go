// Package dolevstrong implements the authenticated Byzantine broadcast
// protocol of Dolev and Strong [52]: a designated sender broadcasts a
// value; after t+1 rounds every correct process decides the sender's value
// if the sender is correct (Sender Validity), and all correct processes
// decide the same value regardless (Agreement). The protocol tolerates any
// t < n corruptions — the maximum possible — and is the substrate for the
// authenticated interactive consistency used by the general solvability
// construction (Algorithm 2 / Lemma 9).
//
// Mechanics: a value is "accepted in round r" when it carries a chain of r
// signatures from r distinct processes beginning with the sender. Each
// correct process forwards a newly accepted value once, appending its own
// signature, and tracks at most two accepted values (two are enough to
// prove sender equivocation). After round t+1 a process decides the unique
// accepted value, or the default if it accepted zero or two values.
//
// Message complexity: each correct process forwards at most two values,
// each to n-1 peers, so correct processes send at most 2n(n-1)+n messages —
// the classical O(n²) upper bound that brackets the paper's Ω(t²) lower
// bound from above.
//
// Wire format: a relay is the JSON object
// {"Items":[{"V":…,"C":[{"S":…,"G":…}]}]} — each newly accepted value with
// its chain of (signer, signature) links, the relayer's own last. The bytes
// are pinned by the root package's TestWirePinned.
package dolevstrong

import (
	"fmt"
	"strconv"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Config parameterizes one broadcast instance.
type Config struct {
	N      int
	T      int
	Sender proc.ID
	Scheme sig.Scheme
	// Tag domain-separates signatures across instances (e.g. "bb", "ic/3").
	Tag string
	// Default is decided when the sender provably equivocated or stayed
	// silent.
	Default msg.Value
	// UnsafeNoRelay disables the forwarding of newly accepted values. This
	// is an ablation hook for tests and experiments: without relaying, an
	// equivocating sender splits the correct processes and Agreement fails.
	// Never enable outside experiments.
	UnsafeNoRelay bool
}

// RoundBound returns the number of rounds after which every correct
// process has decided: t+1.
func RoundBound(t int) int { return t + 1 }

// Link is one signature in a relay chain.
type Link struct {
	S int           // signer
	G sig.Signature // signature over SignedData(tag, value)
}

// Item is a value together with its signature chain.
type Item struct {
	V msg.Value
	C []Link
}

// Payload is the wire format: the items a process relays this round.
type Payload struct {
	Items []Item
}

// decodePayload memoizes payload decoding (msg.CachedDecoder): relayed
// item sets recur across rounds, probes and seeds. Decoded payloads are
// shared and read-only — a relayed chain is written out, never extended
// in place.
var decodePayload = msg.CachedDecoder[Payload]()

// SignedData is the byte string each chain signature covers.
func SignedData(tag string, v msg.Value) []byte {
	return []byte(tag + "\x00" + string(v))
}

// New returns the honest-machine factory for one broadcast instance.
func New(cfg Config) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &machine{cfg: cfg, id: id, proposal: proposal}
	}
}

type machine struct {
	sim.DecideOnce
	out sim.Broadcast

	cfg      Config
	id       proc.ID
	proposal msg.Value

	extracted []msg.Value
}

var _ sim.Machine = (*machine)(nil)

// itemsOpen starts msg.Encode(Payload{Items: …}), which the machine
// writes directly: items through appendItem, then "]}".
const itemsOpen = `{"Items":[`

// appendItem appends Item{V: v, C: chain·own} as encoding/json writes it,
// after a comma unless it is the body's first item.
func appendItem(b []byte, v msg.Value, chain []Link, own Link) []byte {
	if len(b) > len(itemsOpen) {
		b = append(b, ',')
	}
	b = append(b, `{"V":`...)
	b = msg.AppendString(b, string(v))
	b = append(b, `,"C":[`...)
	for _, l := range chain {
		b = appendLink(b, l)
		b = append(b, ',')
	}
	b = appendLink(b, own)
	return append(b, "]}"...)
}

func appendLink(b []byte, l Link) []byte {
	b = append(b, `{"S":`...)
	b = strconv.AppendInt(b, int64(l.S), 10)
	b = append(b, `,"G":`...)
	b = msg.AppendString(b, string(l.G))
	return append(b, '}')
}

// openBody starts a body with room for one item of the round: a chain of
// round+1 links, about 100 bytes each under HMAC signatures.
func openBody(round int) []byte {
	return append(make([]byte, 0, 128*(round+1)), itemsOpen...)
}

// broadcast closes the body of items in b and sends it to every peer;
// no items, no messages.
func (m *machine) broadcast(b []byte) []sim.Outgoing {
	if len(b) == len(itemsOpen) {
		return nil
	}
	return m.out.Send(m.cfg.N, m.id, string(append(b, "]}"...)))
}

// Init implements sim.Machine: the sender signs and broadcasts its
// proposal in round 1.
func (m *machine) Init() []sim.Outgoing {
	if m.id != m.cfg.Sender {
		return nil
	}
	m.extracted = append(m.extracted, m.proposal)
	s, err := m.cfg.Scheme.Sign(m.id, SignedData(m.cfg.Tag, m.proposal))
	if err != nil {
		// An honest machine can always sign for itself; failing to means the
		// harness wired a wrong scheme. Stay silent; the run will surface it.
		return nil
	}
	return m.broadcast(appendItem(openBody(0), m.proposal, nil, Link{S: int(m.id), G: s}))
}

// validChain checks that item carries round-many valid signatures over
// data, from distinct processes other than this one, beginning with the
// sender.
func (m *machine) validChain(it Item, round int, data []byte) bool {
	if len(it.C) != round {
		return false
	}
	if proc.ID(it.C[0].S) != m.cfg.Sender {
		return false
	}
	for i, l := range it.C {
		if l.S < 0 || l.S >= m.cfg.N || proc.ID(l.S) == m.id {
			return false
		}
		for _, earlier := range it.C[:i] {
			if earlier.S == l.S {
				return false
			}
		}
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
	return m.StepSlots(round, received, nil)
}

// decodeThrough is decodePayload behind the slot that came with the
// payload, if one did: the first receiver of a broadcast fills it and the
// others skip the content-keyed lookup. nil is a payload that does not
// decode. A slot another protocol filled with its own reading of the same
// bytes stays as it is.
func decodeThrough(payload string, slot *msg.Slot) *Payload {
	if p, ok := slot.Load().(*Payload); ok {
		return p
	}
	p, ok := decodePayload(payload)
	if !ok {
		p = nil
	}
	slot.Store(p)
	return p
}

// StepSlots is Step for a caller that holds a msg.Slot for each received
// payload (the multiplexer): slots is nil or parallel to received.
func (m *machine) StepSlots(round int, received []msg.Message, slots []*msg.Slot) []sim.Outgoing {
	if m.Quiescent() {
		return nil
	}
	// The items accepted in this round, each with the bytes its signatures
	// cover. A process extracts two values at most, ever.
	var accepted [2]struct {
		Item
		data []byte
	}
	n := 0
	for i, rm := range received {
		var slot *msg.Slot
		if slots != nil {
			slot = slots[i]
		}
		p := decodeThrough(rm.Payload, slot)
		if p == nil {
			continue // garbage from a Byzantine peer
		}
		for _, it := range p.Items {
			if len(m.extracted) >= 2 || m.hasExtracted(it.V) {
				continue
			}
			data := SignedData(m.cfg.Tag, it.V)
			if !m.validChain(it, round, data) {
				continue
			}
			m.extracted = append(m.extracted, it.V)
			accepted[n].Item, accepted[n].data = it, data
			n++
		}
	}

	if round >= RoundBound(m.cfg.T) {
		// End of round t+1: decide.
		if len(m.extracted) == 1 {
			m.Decide(m.extracted[0])
		} else {
			m.Decide(m.cfg.Default)
		}
		return nil
	}

	// Forward newly accepted values in round+1, in value order, with our
	// signature appended.
	if m.cfg.UnsafeNoRelay || n == 0 {
		return nil
	}
	if n == 2 && accepted[1].V < accepted[0].V {
		accepted[0], accepted[1] = accepted[1], accepted[0]
	}
	b := openBody(round)
	for _, a := range accepted[:n] {
		s, err := m.cfg.Scheme.Sign(m.id, a.data)
		if err != nil {
			continue
		}
		b = appendItem(b, a.V, a.C, Link{S: int(m.id), G: s})
	}
	return m.broadcast(b)
}

// Validate sanity-checks a config.
func (c Config) Validate() error {
	switch {
	case c.N < 2 || c.T < 0 || c.T >= c.N:
		return fmt.Errorf("dolevstrong: need 0 <= t < n, n >= 2; got n=%d t=%d", c.N, c.T)
	case c.Sender < 0 || int(c.Sender) >= c.N:
		return fmt.Errorf("dolevstrong: sender %v outside Π", c.Sender)
	case c.Scheme == nil:
		return fmt.Errorf("dolevstrong: nil signature scheme")
	}
	return nil
}
