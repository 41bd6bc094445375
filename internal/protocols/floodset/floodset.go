// Package floodset implements the classical FloodSet consensus algorithm
// for the crash-failure model [82]: every process floods the set of values
// it has seen for t+1 rounds and decides the minimum. With at most t
// crashes some round is crash-free, after which all correct processes hold
// identical sets — Agreement follows.
//
// FloodSet is in this library as a *negative control* for the failure-model
// hierarchy (experiment E10): it is correct under crashes but breaks under
// general omission faults — a faulty process that withholds its value until
// the very last round and then reveals it to a single victim splits the
// decision. The paper's lower bound is proven against omission faults, and
// this protocol shows the model gap is real, not cosmetic.
package floodset

import (
	"slices"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Config parameterizes FloodSet.
type Config struct {
	N int
	T int
}

// RoundBound returns the decision round: t+1.
func RoundBound(t int) int { return t + 1 }

// New returns the honest-machine factory.
func New(cfg Config) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		m := new(machine)
		m.init(cfg, proposal)
		return m
	}
}

type payload struct {
	W []msg.Value
}

// decodePayload memoizes payload decoding (msg.CachedDecoder): probe
// sweeps run FloodSet millions of rounds over a tiny payload universe
// (subsets of the proposal values, usually {0, 1}), so nearly every
// decode is a repeat. Decoded sets are shared and read-only.
var decodePayload = msg.CachedDecoder[payload]()

// The three bit sets are all the honest machines ever send on binary
// proposals: encoding them once keeps every probe's broadcasts free of
// string building, as phase-king's bodyZero and bodyOne do. Bytes are
// identical to msg.Encode output.
var (
	bodyZero = msg.Encode(payload{W: []msg.Value{msg.Zero}})
	bodyOne  = msg.Encode(payload{W: []msg.Value{msg.One}})
	bodyBits = msg.Encode(payload{W: []msg.Value{msg.Zero, msg.One}})
)

// encodeW is msg.Encode(payload{W: w}) — the same bytes. A bit set is one
// of the three constant bodies; any other set is written directly, each
// value through msg.AppendString, which defines the escaping once for
// every direct encoder.
func encodeW(w []msg.Value) string {
	switch {
	case len(w) == 1 && w[0] == msg.Zero:
		return bodyZero
	case len(w) == 1 && w[0] == msg.One:
		return bodyOne
	case len(w) == 2 && w[0] == msg.Zero && w[1] == msg.One:
		return bodyBits
	}
	var stack [64]byte // small sets never leave it
	b := append(stack[:0], `{"W":[`...)
	for i, v := range w {
		if i > 0 {
			b = append(b, ',')
		}
		b = msg.AppendString(b, string(v))
	}
	return string(append(b, "]}"...))
}

type machine struct {
	sim.DecideOnce
	out sim.Broadcast

	cfg Config
	// w is W, the set of values seen, ascending; it starts as the
	// proposal and only grows. Its first two values live in wbuf, so a
	// machine on binary proposals is one allocation.
	w    []msg.Value
	wbuf [2]msg.Value

	// encoded is the body of the last broadcast; it is written again only
	// when W grew since (after round 1 it rarely does).
	encoded string
	grew    bool
}

var _ sim.Machine = (*machine)(nil)

// init sets up a machine in place: w points into m's own wbuf, so a
// machine must not be copied once set up.
func (m *machine) init(cfg Config, proposal msg.Value) {
	m.cfg, m.grew = cfg, true
	m.wbuf[0] = proposal
	m.w = m.wbuf[:1]
}

// absorb merges a received body's values into W. A body equal to the
// machine's own last broadcast encodes a subset of W and is skipped
// undecoded — from round 2 on that is nearly every message.
func (m *machine) absorb(body string) {
	if body == m.encoded {
		return
	}
	p, ok := decodePayload(body)
	if !ok {
		return
	}
	for _, v := range p.W {
		if i, found := slices.BinarySearch(m.w, v); !found {
			m.w = slices.Insert(m.w, i, v)
			m.grew = true
		}
	}
}

func (m *machine) broadcast() []sim.Outgoing {
	if m.grew {
		m.encoded, m.grew = encodeW(m.w), false
	}
	return m.out.Send(m.encoded)
}

// Init implements sim.Machine.
func (m *machine) Init() []sim.Outgoing { return m.broadcast() }

// Step implements sim.Machine.
func (m *machine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.Quiescent() {
		return nil
	}
	for i := range received {
		m.absorb(received[i].Payload)
	}
	if round >= RoundBound(m.cfg.T) {
		m.Decide(m.w[0]) // min of W
		return nil
	}
	return m.broadcast()
}
