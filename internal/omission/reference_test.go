package omission

import (
	"fmt"
	"slices"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
)

// The validator that preceded the dense sender×receiver index, verbatim
// (a map over every sent message of the execution, two maps per fragment,
// a linear scan per sent message) but for one rule added to both: an
// endpoint outside Π is a composition error. FuzzValidateMatchesReference
// holds Validate to it, verdict and error text alike.

func refValidate(e *sim.Execution) error {
	if _, err := e.Trace(); err != nil {
		return fmt.Errorf("validate: requires a full trace, got recording level %q — re-run the configuration at sim.RecordFull", e.Recording)
	}
	if e.Faulty.Len() > e.T {
		return fmt.Errorf("faulty-processes: |F|=%d exceeds t=%d", e.Faulty.Len(), e.T)
	}
	if !e.Faulty.SubsetOf(proc.Universe(e.N)) {
		return fmt.Errorf("faulty-processes: F=%v not within Π", e.Faulty)
	}
	if len(e.Behaviors) != e.N {
		return fmt.Errorf("composition: %d behaviors for n=%d", len(e.Behaviors), e.N)
	}
	for i, b := range e.Behaviors {
		if b.ID != proc.ID(i) {
			return fmt.Errorf("composition: behavior %d has ID %s", i, b.ID)
		}
		if err := refValidateBehavior(b, e.N); err != nil {
			return fmt.Errorf("composition: %s: %w", b.ID, err)
		}
	}
	sent := make(map[msg.Key]msg.Message)
	for _, b := range e.Behaviors {
		for _, f := range b.Fragments {
			for _, m := range f.Sent {
				sent[m.Key()] = m
			}
		}
	}
	for _, b := range e.Behaviors {
		for _, f := range b.Fragments {
			for _, in := range [2][]msg.Message{f.Received, f.ReceiveOmitted} {
				for _, m := range in {
					got, ok := sent[m.Key()]
					if !ok || got != m {
						return fmt.Errorf("receive-validity: %s holds %v which was never sent", b.ID, m)
					}
				}
			}
			if (len(f.SendOmitted) > 0 || len(f.ReceiveOmitted) > 0) && !e.Faulty.Contains(b.ID) {
				return fmt.Errorf("omission-validity: correct %s commits omission faults in round %d", b.ID, f.Round)
			}
		}
	}
	var lost *msg.Message
	for _, b := range e.Behaviors {
		for _, f := range b.Fragments {
			for i := range f.Sent {
				m := &f.Sent[i]
				if lost != nil && lost.Key().Compare(m.Key()) <= 0 {
					continue
				}
				if m.Receiver >= 0 && int(m.Receiver) < e.N {
					rf := e.Behaviors[m.Receiver].Frag(m.Round)
					if refContainsMsg(rf.Received, *m) || refContainsMsg(rf.ReceiveOmitted, *m) {
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

func refValidateBehavior(b *sim.Behavior, n int) error {
	decided := false
	var decision msg.Value
	for idx, f := range b.Fragments {
		if f.Round != idx+1 {
			return fmt.Errorf("fragment %d has round %d", idx, f.Round)
		}
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
				if m.Receiver < 0 || int(m.Receiver) >= n {
					return fmt.Errorf("round %d: outgoing %v has receiver outside Π (n=%d)", f.Round, m, n)
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
				if m.Sender < 0 || int(m.Sender) >= n {
					return fmt.Errorf("round %d: incoming %v has sender outside Π (n=%d)", f.Round, m, n)
				}
				if senders[m.Sender] {
					return fmt.Errorf("round %d: two messages from %s", f.Round, m.Sender)
				}
				senders[m.Sender] = true
			}
		}
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

func refContainsMsg(ms []msg.Message, m msg.Message) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

// fuzzTrace is a full engine trace to mutate: echo or phase-king at
// n = 5..12, fault-free or with its last t processes isolated from round
// 1, 2 or 3.
func fuzzTrace(t *testing.T, proto, size, isolate uint8) *sim.Execution {
	t.Helper()
	n := 5 + int(size%8)
	tf, factory, horizon := n/2, echoFactory(n, 3), 8
	if proto%2 == 1 {
		tf = (n - 1) / 4
		factory, horizon = phaseking.New(phaseking.Config{N: n, T: tf}), sim.Horizon(phaseking.RoundBound(tf))
	}
	props := make([]msg.Value, n)
	for i := range props {
		props[i] = msg.Bit(int(isolate>>2+uint8(i)) % 2)
	}
	var plan sim.FaultPlan = sim.NoFaults{}
	if isolate%4 > 0 {
		plan = Isolation(proc.Range(proc.ID(n-max(tf, 1)), proc.ID(n)), int(isolate%4))
	}
	e, err := sim.Run(sim.Config{N: n, T: tf, Proposals: props, MaxRounds: horizon}, factory, plan)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mutate applies one edit per five bytes of edits: an operation, a
// behavior, a fragment, one of its four message lists and an index in it,
// and an argument. The operations drop, duplicate, move to another list,
// retarget (an endpoint anywhere in -1..n+1), re-round, re-payload, flip a
// decision, and add or remove a faulty process.
func mutate(e *sim.Execution, edits []byte) {
	n := proc.ID(e.N)
	for ; len(edits) >= 5; edits = edits[5:] {
		op, arg := edits[0]%8, edits[4]
		b := e.Behaviors[int(edits[1])%len(e.Behaviors)]
		if op == 7 {
			if id := proc.ID(arg) % (n + 1); e.Faulty.Contains(id) {
				e.Faulty = e.Faulty.Remove(id)
			} else {
				e.Faulty = e.Faulty.Add(id)
			}
			continue
		}
		if len(b.Fragments) == 0 {
			continue
		}
		f := &b.Fragments[int(edits[2])%len(b.Fragments)]
		if op == 6 {
			if arg%2 == 0 {
				f.Decided = !f.Decided
			}
			f.Decision = msg.Bit(int(arg/2) % 2)
			continue
		}
		lists := [4]*[]msg.Message{&f.Sent, &f.SendOmitted, &f.Received, &f.ReceiveOmitted}
		l := lists[edits[3]%4]
		if len(*l) == 0 {
			continue
		}
		*l = slices.Clone(*l)
		i := int(edits[3]/4) % len(*l)
		m := &(*l)[i]
		switch op {
		case 0:
			*l = slices.Delete(*l, i, i+1)
		case 1:
			*l = append(*l, *m)
		case 2:
			to := lists[(int(edits[3]%4)+1+int(arg%3))%4]
			*to = append(slices.Clone(*to), *m)
			*l = slices.Delete(*l, i, i+1)
		case 3:
			id := proc.ID(arg>>1)%(n+3) - 1
			if arg%2 == 0 {
				m.Sender = id
			} else {
				m.Receiver = id
			}
		case 4:
			m.Round += int(arg%5) - 2
		case 5:
			m.Payload = fmt.Sprint(arg % 3)
		}
	}
}

// FuzzValidateMatchesReference: on a mutated engine trace, Validate gives
// the reference's verdict with the byte-identical error.
func FuzzValidateMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), []byte{})
	f.Add(uint8(1), uint8(4), uint8(2), []byte{0, 1, 0, 2, 0, 2, 3, 1, 3, 1})
	f.Fuzz(func(t *testing.T, proto, size, isolate uint8, edits []byte) {
		e := fuzzTrace(t, proto, size, isolate)
		mutate(e, edits)
		got, want := Validate(e), refValidate(e)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate: %v\nreference: %v", got, want)
		}
	})
}
