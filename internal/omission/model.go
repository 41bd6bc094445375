// Package omission implements the omission-failure machinery of §3 and
// Appendix A: the execution-validity guarantees, group isolation
// (Definition 1), mergeability (Definition 2), indistinguishability, the
// swap_omission procedure (Algorithm 4) and the merge procedure
// (Algorithm 5).
//
// Everything operates on sim.Execution traces. The paper proves its
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
// violated guarantee.
func Validate(e *sim.Execution) error {
	if e.Recording != sim.RecordFull {
		return fmt.Errorf("validate: requires a full trace, got recording level %q — re-run the configuration at sim.RecordFull", e.Recording)
	}
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
	for i, b := range e.Behaviors {
		if b.ID != proc.ID(i) {
			return fmt.Errorf("composition: behavior %d has ID %s", i, b.ID)
		}
		if err := validateBehavior(b); err != nil {
			return fmt.Errorf("composition: %s: %w", b.ID, err)
		}
	}

	// Index all successfully sent messages by identity. Composition has
	// made the keys distinct: one sender per behavior, one round per
	// fragment, one message per receiver in it.
	count := 0
	for _, b := range e.Behaviors {
		for _, f := range b.Fragments {
			count += len(f.Sent)
		}
	}
	sent := make(map[msg.Key]msg.Message, count)
	for _, b := range e.Behaviors {
		for _, f := range b.Fragments {
			for _, m := range f.Sent {
				sent[m.Key()] = m
			}
		}
	}

	for _, b := range e.Behaviors {
		for _, f := range b.Fragments {
			// Receive-validity: everything received or receive-omitted was
			// successfully sent in the same round with the same payload.
			for _, in := range [2][]msg.Message{f.Received, f.ReceiveOmitted} {
				for _, m := range in {
					got, ok := sent[m.Key()]
					if !ok || got != m {
						return fmt.Errorf("receive-validity: %s holds %v which was never sent", b.ID, m)
					}
				}
			}
			// Omission-validity: omissions only at faulty processes.
			if (len(f.SendOmitted) > 0 || len(f.ReceiveOmitted) > 0) && !e.Faulty.Contains(b.ID) {
				return fmt.Errorf("omission-validity: correct %s commits omission faults in round %d", b.ID, f.Round)
			}
		}
	}

	// Send-validity: every sent message is received or receive-omitted by
	// its receiver in the same round. The witness named by the error is the
	// first lost message in canonical message order, whatever order the
	// trace lists them in.
	var lost *msg.Message
	for _, b := range e.Behaviors {
		for _, f := range b.Fragments {
			for i := range f.Sent {
				m := &f.Sent[i]
				if lost != nil && lost.Key().Compare(m.Key()) <= 0 {
					continue
				}
				if m.Receiver >= 0 && int(m.Receiver) < e.N { // else nobody in Π holds it
					rf := e.Behaviors[m.Receiver].Frag(m.Round)
					if containsMsg(rf.Received, *m) || containsMsg(rf.ReceiveOmitted, *m) {
						continue
					}
				}
				lost = m
			}
		}
	}
	if lost != nil {
		return fmt.Errorf("send-validity: %v sent but neither received nor receive-omitted", *lost)
	}
	return nil
}

// Certify is the standard a trace is held to before anything is read off
// it as evidence: the five Appendix A.1.6 guarantees — the first of which
// is the fault budget |F| <= t — and machine conformance, every process
// outside skip re-executed against its recorded inputs (skip holds the
// processes whose machines a Byzantine plan replaced). A refusal is a
// harness failure or a forged trace, never a protocol-property violation.
func Certify(e *sim.Execution, factory sim.Factory, skip proc.Set) error {
	if err := Validate(e); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	if err := sim.Conforms(e, factory, skip); err != nil {
		return fmt.Errorf("conformance: %w", err)
	}
	return nil
}

func validateBehavior(b *sim.Behavior) error {
	decided := false
	var decision msg.Value
	for idx, f := range b.Fragments {
		if f.Round != idx+1 {
			return fmt.Errorf("fragment %d has round %d", idx, f.Round)
		}
		// Fragment conditions (3)-(10) of Appendix A.1.4.
		receivers := make(map[proc.ID]bool)
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
				if receivers[m.Receiver] {
					return fmt.Errorf("round %d: two messages to %s", f.Round, m.Receiver)
				}
				receivers[m.Receiver] = true
			}
		}
		senders := make(map[proc.ID]bool)
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
				if senders[m.Sender] {
					return fmt.Errorf("round %d: two messages from %s", f.Round, m.Sender)
				}
				senders[m.Sender] = true
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
func behavior(e *sim.Execution, id proc.ID) (*sim.Behavior, error) {
	if id < 0 || int(id) >= len(e.Behaviors) {
		return nil, fmt.Errorf("%s is not a process of this execution (n=%d)", id, e.N)
	}
	return e.Behaviors[id], nil
}

func containsMsg(ms []msg.Message, m msg.Message) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

// Indistinguishable reports whether executions e1 and e2 are
// indistinguishable to process id: same proposal and identical received
// messages in every round (§3). On distinguishability it returns a
// descriptive error locating the first difference.
func Indistinguishable(e1, e2 *sim.Execution, id proc.ID) error {
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
		//balint:allow leantier §3 indistinguishability compares full received views; lowerbound drivers record full
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
func MessagesFromTo(e *sim.Execution, from proc.Set, p proc.ID) []msg.Message {
	var out []msg.Message
	//balint:allow leantier Lemma 2 message sets exist only in full traces; callers construct them at RecordFull
	for _, m := range e.Behavior(p).AllReceiveOmitted() {
		if from.Contains(m.Sender) {
			out = append(out, m)
		}
	}
	return out
}
