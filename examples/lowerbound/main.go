// Lowerbound: watch Theorem 2 break a plausible sub-quadratic protocol.
//
// The "leader" weak consensus protocol sends n-1 messages: the leader
// broadcasts its proposal, everyone follows, and anyone who notices a
// missing message defaults to 1. Weak Validity holds and every run looks
// fine — until the falsifier replays the paper's §3 construction and
// produces a concrete execution in which two correct processes disagree.
package main

import (
	"errors"
	"fmt"
	"log"

	"expensive"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		n = 40
		t = 16
	)

	// The protocol under attack: leader broadcast, n-1 messages, sub-t²/32.
	factory, rounds := leaderProtocol(n)

	fmt.Printf("falsifying the %d-message leader protocol at n=%d, t=%d (t²/32 = %d)\n\n",
		n-1, n, t, expensive.Floor(t))

	report, err := expensive.FalsifyWeakConsensus("leader", factory, rounds, n, t)
	if err != nil {
		return err
	}
	for _, line := range report.Log {
		fmt.Println("  " + line)
	}
	if !report.Broken() {
		return errors.New("protocol unexpectedly survived — Theorem 2 says it cannot")
	}

	fmt.Printf("\ncounterexample found: %s\n", report.Verdict())
	fmt.Printf("  faulty processes in the certificate execution: %v (t = %d)\n", report.Violation.Plan.FaultySet(), t)

	// Nothing is taken on faith: replay the plan from scratch and re-validate
	// it — Appendix A execution guarantees, fault budget, machine conformance
	// (every recorded behavior is reproduced by re-running the protocol) and
	// the same violation.
	if err := report.Recheck(factory, rounds); err != nil {
		return fmt.Errorf("certificate failed independent validation: %w", err)
	}
	fmt.Println("  certificate independently re-validated ✓")
	fmt.Println("\nconclusion: no weak consensus algorithm can send fewer than t²/32 messages (Theorem 2)")
	return nil
}

// leaderProtocol builds the cheap candidate via the public machine API —
// the same machine interface every protocol in the library implements.
func leaderProtocol(n int) (expensive.Factory, int) {
	factory := func(id expensive.ProcessID, proposal expensive.Value) expensive.Machine {
		return &leaderMachine{n: n, id: id, proposal: proposal}
	}
	return factory, 1
}

type leaderMachine struct {
	n        int
	id       expensive.ProcessID
	proposal expensive.Value
	decided  bool
	decision expensive.Value
}

func (m *leaderMachine) Init() []expensive.Outgoing {
	if m.id != 0 {
		return nil
	}
	out := make([]expensive.Outgoing, 0, m.n-1)
	for p := expensive.ProcessID(1); p < expensive.ProcessID(m.n); p++ {
		out = append(out, expensive.Outgoing{To: p, Payload: string(m.proposal)})
	}
	return out
}

func (m *leaderMachine) Step(round int, received []expensive.Message) []expensive.Outgoing {
	if round != 1 {
		return nil
	}
	m.decided = true
	if m.id == 0 {
		m.decision = m.proposal
		return nil
	}
	m.decision = expensive.One // fault detected → default
	for _, rm := range received {
		if rm.Sender == 0 {
			m.decision = expensive.Value(rm.Payload)
		}
	}
	return nil
}

func (m *leaderMachine) Decision() (expensive.Value, bool) {
	if !m.decided {
		return "", false
	}
	return m.decision, true
}

func (m *leaderMachine) Quiescent() bool { return m.decided }
