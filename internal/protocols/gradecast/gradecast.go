// Package gradecast implements Feldman–Micali graded broadcast for n > 3t:
// a designated sender distributes a value and every correct process
// outputs a (value, grade) pair with grade ∈ {0, 1, 2} such that
//
//	(G1) a correct sender's value is output by every correct process with
//	     grade 2;
//	(G2) if any correct process outputs grade 2, every correct process
//	     outputs the same value with grade >= 1; and
//	(G3) any two correct processes with grade >= 1 output the same value.
//
// Gradecast is the classical "detectable broadcast" building block of
// round-efficient Byzantine agreement (Feldman–Micali 1988) and of the
// crusader-broadcast lineage the paper's related work cites [13]. It is
// included as an additional unauthenticated substrate: three rounds,
// Θ(n²) messages — another data point above the paper's quadratic floor.
//
// Protocol: round 1 the sender sends v to all; round 2 every process
// echoes what it received; round 3 a process that saw n-t matching echoes
// supports the value; outputs: grade 2 on n-t supports, grade 1 on t+1
// supports, grade 0 otherwise.
package gradecast

import (
	"fmt"
	"sort"
	"strings"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Config parameterizes one gradecast instance.
type Config struct {
	N      int
	T      int
	Sender proc.ID
}

// Validate checks the resilience precondition n > 3t.
func (c Config) Validate() error {
	if c.N <= 3*c.T {
		return fmt.Errorf("gradecast: requires n > 3t, got n=%d t=%d", c.N, c.T)
	}
	if c.Sender < 0 || int(c.Sender) >= c.N {
		return fmt.Errorf("gradecast: sender %v outside Π", c.Sender)
	}
	return nil
}

// RoundBound returns the decision round: 3.
func RoundBound() int { return 3 }

// Output encodes a graded output as a Value: "g|<grade>|<value>".
func Output(grade int, v msg.Value) msg.Value {
	return msg.Value(fmt.Sprintf("g|%d|%s", grade, v))
}

// Parse splits a graded output.
func Parse(out msg.Value) (grade int, v msg.Value, err error) {
	parts := strings.SplitN(string(out), "|", 3)
	if len(parts) != 3 || parts[0] != "g" {
		return 0, "", fmt.Errorf("gradecast: malformed output %q", out)
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &grade); err != nil {
		return 0, "", fmt.Errorf("gradecast: malformed grade in %q", out)
	}
	return grade, msg.Value(parts[2]), nil
}

// New returns the honest-machine factory. The machine's decision is the
// encoded graded output after round 3.
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

	fromSender msg.Value
	hasValue   bool
	support    msg.Value
	hasSupport bool
}

var _ sim.Machine = (*machine)(nil)

func (m *machine) broadcast(v msg.Value) []sim.Outgoing {
	return m.out.Send(m.cfg.N, m.id, string(v))
}

// Init implements sim.Machine: the sender distributes its value.
func (m *machine) Init() []sim.Outgoing {
	if m.id != m.cfg.Sender {
		return nil
	}
	m.fromSender, m.hasValue = m.proposal, true
	return m.broadcast(m.proposal)
}

// tally returns the value with the highest count (ties broken by value
// order) and its count, over senders' single votes.
func tally(votes map[proc.ID]msg.Value) (msg.Value, int) {
	counts := make(map[msg.Value]int, len(votes))
	//balint:allow maporder commutative count fold; winners are read back in sorted key order below
	for _, v := range votes {
		counts[v]++
	}
	keys := make([]msg.Value, 0, len(counts))
	for v := range counts {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	best, bestN := msg.NoDecision, 0
	for _, v := range keys {
		if counts[v] > bestN {
			best, bestN = v, counts[v]
		}
	}
	return best, bestN
}

func votesFrom(received []msg.Message) map[proc.ID]msg.Value {
	votes := make(map[proc.ID]msg.Value, len(received))
	for _, rm := range received {
		votes[rm.Sender] = msg.Value(rm.Payload)
	}
	return votes
}

// Step implements sim.Machine.
func (m *machine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.Quiescent() {
		return nil
	}
	switch round {
	case 1:
		// Record the sender's value; echo it in round 2.
		for _, rm := range received {
			if rm.Sender == m.cfg.Sender {
				m.fromSender, m.hasValue = msg.Value(rm.Payload), true
			}
		}
		if !m.hasValue {
			return nil // nothing to echo
		}
		return m.broadcast(m.fromSender)
	case 2:
		// Count echoes (own echo included); support on n-t agreement.
		votes := votesFrom(received)
		if m.hasValue {
			votes[m.id] = m.fromSender
		}
		best, count := tally(votes)
		if count >= m.cfg.N-m.cfg.T {
			m.support, m.hasSupport = best, true
			return m.broadcast(best)
		}
		return nil
	default: // round 3: grade
		votes := votesFrom(received)
		if m.hasSupport {
			votes[m.id] = m.support
		}
		best, count := tally(votes)
		switch {
		case count >= m.cfg.N-m.cfg.T:
			m.Decide(Output(2, best))
		case count >= m.cfg.T+1:
			m.Decide(Output(1, best))
		default:
			m.Decide(Output(0, ""))
		}
		return nil
	}
}
