package sim

import "expensive/internal/msg"

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

// Broadcast is a machine's one outgoing entry, addressed to Everyone:
// every Send rewrites its payload and returns it, so a machine that tells
// all its peers the same thing allocates nothing to say it.
//
// The slice is lent, not given. It is valid until the next Init or Step of
// the machine that returned it, which may rewrite it in place; whoever
// drives a machine routes or copies the messages before stepping that
// machine again, and never writes to them. The rule holds for every slice
// a Machine returns; it is spelt out here, where nearly every machine —
// the multiplexer among them — meets it.
type Broadcast struct {
	out [1]Outgoing
}

// Send returns body addressed to Everyone: one message to every process of
// Π but the sender, once the engine or Expand reads it.
func (b *Broadcast) Send(body string) []Outgoing {
	b.out[0] = Outgoing{To: Everyone, Payload: body}
	return b.out[:]
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
