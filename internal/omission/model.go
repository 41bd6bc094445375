// Package omission implements the omission-failure machinery of §3 and
// Appendix A: the execution-validity guarantees, group isolation
// (Definition 1), mergeability (Definition 2), indistinguishability, the
// swap_omission procedure (Algorithm 4) and the merge procedure
// (Algorithm 5).
//
// Everything operates on full traces, *sim.Trace. The paper proves its
// constructed objects are executions; this package *checks* them instead,
// against the five guarantees of Appendix A.1.6 and each lemma's claims.
// Merge runs the execution Lemma 16 says Algorithm 5 builds — B and C
// isolated, on the engine — and checks the lemma's three conclusions on it.
package omission

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Validate checks the five guarantees an Appendix A.1.6 execution must
// satisfy: Faulty processes, Composition, Send-validity, Receive-validity
// and Omission-validity. It returns a descriptive error naming the first
// violated guarantee. Precedence is fixed, whatever order the trace lists
// its messages in: every composition error comes first; then the first
// receive-validity or omission-validity error in (behavior, round) order,
// receive-validity first within a fragment; then send-validity, naming the
// smallest lost message in Key.Compare order.
//
// Cost: O(messages + n²) time and three allocations — Π for the faulty
// set's range check, 2n composition stamps shared by every behavior, and
// the n×n sender×receiver table the other three guarantees are checked
// against in one pass over the rounds. A lean execution is refused.
func Validate(e *sim.Execution) error {
	t, err := e.Trace()
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	return validate(t)
}

func validate(e *sim.Trace) error {
	// Faulty processes: F is a set of at most t processes within Π.
	if e.Faulty.Len() > e.T {
		return fmt.Errorf("faulty-processes: |F|=%d exceeds t=%d", e.Faulty.Len(), e.T)
	}
	if !e.Faulty.SubsetOf(proc.Universe(e.N)) {
		return fmt.Errorf("faulty-processes: F=%v not within Π", e.Faulty)
	}
	if len(e.Behaviors) != e.N {
		return fmt.Errorf("composition: %d behaviors for n=%d", len(e.Behaviors), e.N)
	}

	// Composition: every behavior is well-formed.
	n, rounds := e.N, 0
	c := composition{seen: make([]uint32, 2*n)}
	for i, b := range e.Behaviors {
		if b.ID != proc.ID(i) {
			return fmt.Errorf("composition: behavior %d has ID %s", i, b.ID)
		}
		if err := c.check(b); err != nil {
			return fmt.Errorf("composition: %s: %w", b.ID, err)
		}
		rounds = max(rounds, len(b.Fragments))
	}

	// Composition has put every sender and receiver in Π and made each
	// (sender, receiver) pair unique within a round, so slot[s*n+r] holds
	// the one message s sent r in the round at hand. Receiving it clears
	// the slot. An entry left from an earlier round never matches a
	// message of this one: their rounds differ.
	slot := make([]*msg.Message, n*n)
	var failed error // the first receive- or omission-validity failure ...
	failedAt := n    // ... and its behavior: later ones need no checking
	var lost *msg.Message
	for r := 1; r <= rounds; r++ {
		for _, b := range e.Behaviors {
			if r <= len(b.Fragments) {
				for i, m := range b.Fragments[r-1].Sent {
					slot[int(m.Sender)*n+int(m.Receiver)] = &b.Fragments[r-1].Sent[i]
				}
			}
		}
		for id := 0; id < failedAt; id++ {
			b := e.Behaviors[id]
			if r > len(b.Fragments) {
				continue
			}
			f := &b.Fragments[r-1]
			// Receive-validity: everything received or receive-omitted was
			// successfully sent in the same round with the same payload.
			if m, ok := receive(f, slot, n); !ok {
				failed, failedAt = fmt.Errorf("receive-validity: %s holds %v which was never sent", b.ID, m), id
			} else if (len(f.SendOmitted) > 0 || len(f.ReceiveOmitted) > 0) && !e.Faulty.Contains(b.ID) {
				// Omission-validity: omissions only at faulty processes.
				failed, failedAt = fmt.Errorf("omission-validity: correct %s commits omission faults in round %d", b.ID, f.Round), id
			}
		}
		// Send-validity: every sent message is received or receive-omitted
		// by its receiver in the same round, so its slot is clear. Rounds
		// come first in message order: the earliest round with a loss holds
		// the witness, and within it the first sender with a loss.
		for id := 0; lost == nil && id < n; id++ {
			b := e.Behaviors[id]
			if r > len(b.Fragments) {
				continue
			}
			for i, m := range b.Fragments[r-1].Sent {
				if slot[int(m.Sender)*n+int(m.Receiver)] != nil && (lost == nil || m.Key().Compare(lost.Key()) < 0) {
					lost = &b.Fragments[r-1].Sent[i]
				}
			}
		}
	}
	if failed != nil {
		return failed
	}
	if lost != nil {
		return fmt.Errorf("send-validity: %v sent but neither received nor receive-omitted", *lost)
	}
	return nil
}

// receive clears the slot of each message f received or receive-omitted,
// and returns the first one whose slot does not hold it: a message never
// sent.
func receive(f *sim.Fragment, slot []*msg.Message, n int) (msg.Message, bool) {
	for _, in := range [2][]msg.Message{f.Received, f.ReceiveOmitted} {
		for _, m := range in {
			k := int(m.Sender)*n + int(m.Receiver)
			if s := slot[k]; s == nil || *s != m {
				return m, false
			}
			slot[k] = nil
		}
	}
	return msg.Message{}, true
}

// Certify is the standard a trace is held to before anything is read off
// it as evidence: the five Appendix A.1.6 guarantees — the first of which
// is the fault budget |F| <= t — and machine conformance, every process
// outside skip re-executed against its recorded inputs (skip holds the
// processes whose machines a Byzantine plan replaced). A refusal is a
// harness failure or a forged trace, never a protocol-property violation.
func Certify(e *sim.Trace, factory sim.Factory, skip proc.Set) error {
	if err := validate(e); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	if err := e.Conforms(factory, skip); err != nil {
		return fmt.Errorf("conformance: %w", err)
	}
	return nil
}

// composition checks behaviors against the fragment conditions (3)-(10)
// of Appendix A.1.4 and behavior condition (6). seen holds 2n stamps —
// receivers in the first half, senders in the second — shared by every
// fragment of every behavior: a process is marked in the fragment at hand
// when its stamp is that fragment's generation.
type composition struct {
	seen []uint32
	gen  uint32
}

func (c *composition) check(b *sim.Behavior) error {
	n := len(c.seen) / 2
	decided := false
	var decision msg.Value
	for idx := range b.Fragments {
		f := &b.Fragments[idx]
		if f.Round != idx+1 {
			return fmt.Errorf("fragment %d has round %d", idx, f.Round)
		}
		c.gen++
		receivers, senders := c.seen[:n], c.seen[n:]
		for _, out := range [2][]msg.Message{f.Sent, f.SendOmitted} {
			for _, m := range out {
				if m.Round != f.Round {
					return fmt.Errorf("round %d: outgoing %v has wrong round", f.Round, m)
				}
				if m.Sender != b.ID {
					return fmt.Errorf("round %d: outgoing %v has sender != %s", f.Round, m, b.ID)
				}
				if m.Receiver == b.ID {
					return fmt.Errorf("round %d: self-message %v", f.Round, m)
				}
				if m.Receiver < 0 || int(m.Receiver) >= n {
					return fmt.Errorf("round %d: outgoing %v has receiver outside Π (n=%d)", f.Round, m, n)
				}
				if receivers[m.Receiver] == c.gen {
					return fmt.Errorf("round %d: two messages to %s", f.Round, m.Receiver)
				}
				receivers[m.Receiver] = c.gen
			}
		}
		for _, in := range [2][]msg.Message{f.Received, f.ReceiveOmitted} {
			for _, m := range in {
				if m.Round != f.Round {
					return fmt.Errorf("round %d: incoming %v has wrong round", f.Round, m)
				}
				if m.Receiver != b.ID {
					return fmt.Errorf("round %d: incoming %v has receiver != %s", f.Round, m, b.ID)
				}
				if m.Sender == b.ID {
					return fmt.Errorf("round %d: self-message %v", f.Round, m)
				}
				if m.Sender < 0 || int(m.Sender) >= n {
					return fmt.Errorf("round %d: incoming %v has sender outside Π (n=%d)", f.Round, m, n)
				}
				if senders[m.Sender] == c.gen {
					return fmt.Errorf("round %d: two messages from %s", f.Round, m.Sender)
				}
				senders[m.Sender] = c.gen
			}
		}
		// Behavior condition (6): decisions are stable.
		if decided {
			if !f.Decided || f.Decision != decision {
				return fmt.Errorf("round %d: decision changed after deciding %q", f.Round, decision)
			}
		} else if f.Decided {
			decided, decision = true, f.Decision
		}
	}
	return nil
}

// behavior returns e's behavior of id, or an error if e has no process id.
func behavior(e *sim.Trace, id proc.ID) (*sim.Behavior, error) {
	if id < 0 || int(id) >= len(e.Behaviors) {
		return nil, fmt.Errorf("%s is not a process of this execution (n=%d)", id, e.N)
	}
	return e.Behaviors[id], nil
}

// Indistinguishable reports whether executions e1 and e2 are
// indistinguishable to process id: same proposal and identical received
// messages in every round (§3). On distinguishability it returns a
// descriptive error locating the first difference.
func Indistinguishable(e1, e2 *sim.Trace, id proc.ID) error {
	b1, err := behavior(e1, id)
	if err != nil {
		return err
	}
	b2, err := behavior(e2, id)
	if err != nil {
		return err
	}
	if b1.Proposal != b2.Proposal {
		return fmt.Errorf("%s proposes %q vs %q", id, b1.Proposal, b2.Proposal)
	}
	rounds := max(len(b1.Fragments), len(b2.Fragments))
	for r := 1; r <= rounds; r++ {
		r1, r2 := b1.Frag(r).Received, b2.Frag(r).Received
		if !msg.SameSet(r1, r2) {
			return fmt.Errorf("%s receives different messages in round %d (%d vs %d msgs)",
				id, r, len(r1), len(r2))
		}
	}
	return nil
}

// MessagesFromTo returns the messages receive-omitted by p whose sender
// lies in from — the paper's M_{X→p} sets used by Lemma 2.
func MessagesFromTo(e *sim.Trace, from proc.Set, p proc.ID) []msg.Message {
	var out []msg.Message
	for _, m := range e.Behavior(p).AllReceiveOmitted() {
		if from.Contains(m.Sender) {
			out = append(out, m)
		}
	}
	return out
}
