// Package cheap provides deliberately sub-quadratic weak consensus
// candidates — the "too good to be true" algorithms whose impossibility
// Theorem 2 establishes. Each protocol satisfies Weak Validity and decides
// quickly in fault-free runs, sends o(t²) messages, and looks plausible:
// every one of them picks the default value 1 the moment it detects any
// fault, which is exactly the strategy the paper's introduction explains
// classical proof techniques cannot handle.
//
// The lower-bound falsifier (package lowerbound) constructs, for every
// protocol here, the execution sequence of Lemmas 2–5 and extracts a
// concrete valid execution in which two correct processes disagree or a
// correct process never decides — the machine-checked counterpart of the
// paper's impossibility argument (experiment E1).
package cheap

import (
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

func clampBit(v msg.Value) msg.Value {
	if msg.IsBit(v) {
		return v
	}
	return msg.Zero
}

// Silent is the zero-message protocol: every process immediately decides
// its own proposal. Weak Validity holds (a unanimous fault-free execution
// decides the common proposal); Agreement is the casualty. Message
// complexity: 0. Decision round: 1.
func Silent() sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &silentMachine{proposal: clampBit(proposal)}
	}
}

// SilentRounds is the decision round of Silent.
const SilentRounds = 1

type silentMachine struct {
	sim.DecideOnce
	proposal msg.Value
}

var _ sim.Machine = (*silentMachine)(nil)

func (m *silentMachine) Init() []sim.Outgoing { return nil }

func (m *silentMachine) Step(round int, _ []msg.Message) []sim.Outgoing {
	if round == 1 {
		m.Decide(m.proposal)
	}
	return nil
}

// Leader is the (n-1)-message protocol: process 0 broadcasts its proposal
// in round 1; every process decides the received value, defaulting to 1
// when the leader's message is missing (fault detected). Weak Validity
// holds because a correct leader reaches everyone; a leader whose messages
// are dropped toward a subset splits the decision. Message complexity:
// n-1. Decision round: 1.
func Leader(n int) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &leaderMachine{n: n, id: id, proposal: clampBit(proposal)}
	}
}

// LeaderRounds is the decision round of Leader.
const LeaderRounds = 1

type leaderMachine struct {
	sim.DecideOnce
	n        int
	id       proc.ID
	proposal msg.Value
}

var _ sim.Machine = (*leaderMachine)(nil)

func (m *leaderMachine) Init() []sim.Outgoing {
	if m.id != 0 {
		return nil
	}
	var all sim.Broadcast // sent once: nothing to keep
	return all.Send(m.n, m.id, string(m.proposal))
}

func (m *leaderMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	if round != 1 {
		return nil
	}
	if m.id == 0 {
		m.Decide(m.proposal)
		return nil
	}
	decision := msg.One // default on detected fault
	for _, rm := range received {
		if rm.Sender == 0 && msg.IsBit(msg.Value(rm.Payload)) {
			decision = msg.Value(rm.Payload)
		}
	}
	m.Decide(decision)
	return nil
}

// Star is the ~2n-message protocol: round 1, everyone reports its proposal
// to process 0; round 2, process 0 broadcasts a verdict (0 iff it saw a 0
// report from every process, else 1); everyone decides the verdict,
// defaulting to 1 when it is missing. Weak Validity holds in fault-free
// unanimous runs; a hub that omits reports or verdicts splits decisions.
// Message complexity: 2(n-1). Decision round: 2.
func Star(n int) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &starMachine{n: n, id: id, proposal: clampBit(proposal)}
	}
}

// StarRounds is the decision round of Star.
const StarRounds = 2

type starMachine struct {
	sim.DecideOnce
	n        int
	id       proc.ID
	proposal msg.Value
	verdict  msg.Value
}

var _ sim.Machine = (*starMachine)(nil)

func (m *starMachine) Init() []sim.Outgoing {
	if m.id == 0 {
		return nil
	}
	return []sim.Outgoing{{To: 0, Payload: string(m.proposal)}}
}

func (m *starMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	switch {
	case round == 1 && m.id == 0:
		// Verdict: 0 iff every process (self included) reported 0.
		m.verdict = msg.Zero
		if m.proposal != msg.Zero {
			m.verdict = msg.One
		}
		reports := make(map[proc.ID]msg.Value, len(received))
		for _, rm := range received {
			reports[rm.Sender] = msg.Value(rm.Payload)
		}
		for p := proc.ID(1); p < proc.ID(m.n); p++ {
			if reports[p] != msg.Zero {
				m.verdict = msg.One
			}
		}
		var all sim.Broadcast
		return all.Send(m.n, m.id, string(m.verdict))
	case round == 2:
		if m.id == 0 {
			m.Decide(m.verdict)
			return nil
		}
		decision := msg.One
		for _, rm := range received {
			if rm.Sender == 0 && msg.IsBit(msg.Value(rm.Payload)) {
				decision = msg.Value(rm.Payload)
			}
		}
		m.Decide(decision)
	}
	return nil
}

// Gossip is the n·k-message protocol: in round 1 every process sends its
// proposal to its k successors (mod n); a process decides 0 iff its own
// proposal and all k expected reports are 0, and 1 otherwise (missing or
// non-zero reports count as detected faults). Weak Validity holds; the
// total message count n·k is sub-quadratic whenever k = o(t²/n). Decision
// round: 1.
func Gossip(n, k int) sim.Factory {
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &gossipMachine{n: n, k: k, id: id, proposal: clampBit(proposal)}
	}
}

// GossipRounds is the decision round of Gossip.
const GossipRounds = 1

type gossipMachine struct {
	sim.DecideOnce
	n, k     int
	id       proc.ID
	proposal msg.Value
}

var _ sim.Machine = (*gossipMachine)(nil)

func (m *gossipMachine) Init() []sim.Outgoing {
	out := make([]sim.Outgoing, m.k)
	for d := range out {
		out[d] = sim.Outgoing{To: proc.ID((int(m.id) + d + 1) % m.n), Payload: string(m.proposal)}
	}
	return out
}

func (m *gossipMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	if round != 1 {
		return nil
	}
	reports := make(map[proc.ID]msg.Value, len(received))
	for _, rm := range received {
		reports[rm.Sender] = msg.Value(rm.Payload)
	}
	decision := m.proposal
	for d := 1; d <= m.k; d++ {
		from := proc.ID((int(m.id) - d + m.n) % m.n)
		if reports[from] != msg.Zero {
			decision = msg.One
		}
	}
	if m.proposal != msg.Zero {
		decision = msg.One
	}
	m.Decide(decision)
	return nil
}
