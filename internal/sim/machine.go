package sim

import (
	"expensive/internal/msg"
	"expensive/internal/proc"
)

// DecideOnce is the decision component of a process's state (Appendix
// A.1.3): unset, or set to a value for good. Machines embed it by value
// and get Decision and Quiescent from it; one whose quiescence is not
// "has decided" declares its own Quiescent.
type DecideOnce struct {
	decided bool
	value   msg.Value
}

// Decide sets the decision. A process decides once: later calls change
// nothing.
func (d *DecideOnce) Decide(v msg.Value) {
	if !d.decided {
		d.decided, d.value = true, v
	}
}

// Decision implements Machine.
func (d *DecideOnce) Decision() (msg.Value, bool) {
	if !d.decided {
		return msg.NoDecision, false
	}
	return d.value, true
}

// Quiescent implements Machine for a machine that falls silent when it
// decides.
func (d *DecideOnce) Quiescent() bool { return d.decided }

// Broadcast is a machine's one outgoing slice: an entry per peer, made by
// the first Send and returned by every later one with only the payloads
// rewritten.
//
// The slice is lent, not given. It is valid until the next Init or Step of
// the machine that returned it, which may rewrite it in place; whoever
// drives a machine routes or copies the messages before stepping that
// machine again, and never writes to them. The rule holds for every slice
// a Machine returns (the multiplexer reuses its bundle slice the same
// way); it is spelt out here, where nearly every machine meets it.
type Broadcast struct {
	out []Outgoing
}

// Send returns body addressed to every process of Π = {p_0 … p_{n-1}}
// except self, in ID order. n and self must not change between calls.
func (b *Broadcast) Send(n int, self proc.ID, body string) []Outgoing {
	if b.out == nil {
		b.out = make([]Outgoing, 0, n-1)
		for p := proc.ID(0); p < proc.ID(n); p++ {
			if p != self {
				b.out = append(b.out, Outgoing{To: p})
			}
		}
	}
	// Every entry carries the last body sent; a fresh slice, the empty one.
	if len(b.out) > 0 && b.out[0].Payload != body {
		for i := range b.out {
			b.out[i].Payload = body
		}
	}
	return b.out
}

// Silent is the machine that never sends and never decides: the weakest
// Byzantine behavior.
type Silent struct{}

var _ Machine = Silent{}

// Init implements Machine.
func (Silent) Init() []Outgoing { return nil }

// Step implements Machine.
func (Silent) Step(int, []msg.Message) []Outgoing { return nil }

// Decision implements Machine.
func (Silent) Decision() (msg.Value, bool) { return msg.NoDecision, false }

// Quiescent implements Machine.
func (Silent) Quiescent() bool { return true }
