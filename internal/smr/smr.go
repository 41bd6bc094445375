// Package smr is the application layer the paper's introduction motivates:
// state machine replication built on repeated Byzantine agreement. Each
// log slot runs one instance of an agreement protocol; replicas feed their
// pending commands as proposals and append the decided command.
//
// The layer is substrate-agnostic: any sim.Factory solving an agreement
// problem (Phase-King, IC+Γ, External-Validity agreement, ...) drives it,
// and slots can execute either in the recording simulator or over the live
// transports. Because every slot is a full agreement instance, the
// replicated log inherits the paper's price tag: Ω(t²) messages per slot,
// no matter which validity property the application picks.
package smr

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Command is an application command (opaque value).
type Command = msg.Value

// Entry is one committed log slot.
type Entry struct {
	Slot    int
	Command Command
	// Messages is the number of messages correct replicas spent on the slot.
	Messages int
	// Rounds is the number of synchronous rounds the slot consumed.
	Rounds int
}

// Config wires a replicated log.
type Config struct {
	N int
	T int
	// Protocol builds one agreement instance; it is invoked once per slot.
	Protocol func(slot int) (sim.Factory, int)
	// Plan optionally injects faults per slot (nil = fault-free).
	Plan func(slot int) sim.FaultPlan
	// NoOp is proposed by replicas with empty queues and committed when a
	// slot decides it; it must be a value the protocol can decide.
	NoOp Command
}

// Log is a deterministic replicated log driven by repeated agreement.
type Log struct {
	queues
	cfg Config
}

// New creates an empty replicated log with one command queue per replica.
func New(cfg Config) (*Log, error) {
	q, err := newQueues(cfg.N, cfg.T, cfg.Protocol)
	if err != nil {
		return nil, err
	}
	return &Log{queues: q, cfg: cfg}, nil
}

// CommitSlot runs one agreement instance over the replicas' current queue
// heads and appends the decided command. A replica whose queue is empty
// proposes NoOp. The decided command is dequeued wherever it is queued.
func (l *Log) CommitSlot() (Entry, error) {
	slot := len(l.entries)
	factory, rounds := l.cfg.Protocol(slot)
	plan := sim.FaultPlan(sim.NoFaults{})
	if l.cfg.Plan != nil {
		if p := l.cfg.Plan(slot); p != nil {
			plan = p
		}
	}
	cfg := sim.Config{N: l.cfg.N, T: l.cfg.T, Proposals: l.proposals(l.cfg.NoOp), MaxRounds: sim.Horizon(rounds)}
	exec, err := sim.Run(cfg, factory, plan)
	if err != nil {
		return Entry{}, fmt.Errorf("smr slot %d: %w", slot, err)
	}
	decision, err := exec.CommonDecision(exec.Correct())
	if err != nil {
		return Entry{}, fmt.Errorf("smr slot %d: %w", slot, err)
	}
	entry := Entry{Slot: slot, Command: decision, Messages: exec.CorrectMessages(), Rounds: exec.Rounds}
	l.commit(entry)
	return entry, nil
}

// Drain commits slots until no commands are pending or maxSlots is
// reached, returning the committed entries.
func (l *Log) Drain(maxSlots int) ([]Entry, error) { return l.drain(maxSlots, l.CommitSlot) }

// queues is the state both logs keep between slots: one queue of pending
// commands per replica and the committed entries. Log and LiveLog embed
// it and differ only in how a slot is decided (their CommitSlot).
type queues struct {
	pending [][]Command
	entries []Entry
}

// newQueues validates what both configs carry — replica count, fault
// bound, protocol constructor — and returns empty queues, one per replica.
func newQueues(n, t int, protocol func(slot int) (sim.Factory, int)) (queues, error) {
	switch {
	case n < 2 || t < 0 || t >= n:
		return queues{}, fmt.Errorf("smr: need 0 <= t < n, n >= 2 (n=%d t=%d)", n, t)
	case protocol == nil:
		return queues{}, fmt.Errorf("smr: nil protocol constructor")
	}
	return queues{pending: make([][]Command, n)}, nil
}

// Submit enqueues a command at one replica (as if a client contacted it).
func (q *queues) Submit(replica proc.ID, cmd Command) error {
	if replica < 0 || int(replica) >= len(q.pending) {
		return fmt.Errorf("smr: unknown replica %v", replica)
	}
	q.pending[replica] = append(q.pending[replica], cmd)
	return nil
}

// Entries returns the committed log.
func (q *queues) Entries() []Entry {
	out := make([]Entry, len(q.entries))
	copy(out, q.entries)
	return out
}

// Pending reports the number of commands still queued across replicas.
func (q *queues) Pending() int {
	total := 0
	for _, p := range q.pending {
		total += len(p)
	}
	return total
}

// proposals is what the replicas bring to the next slot: each one's queue
// head, or noOp where the queue is empty.
func (q *queues) proposals(noOp Command) []msg.Value {
	out := make([]msg.Value, len(q.pending))
	for i, p := range q.pending {
		if len(p) > 0 {
			out[i] = p[0]
		} else {
			out[i] = noOp
		}
	}
	return out
}

// commit appends a decided slot and dequeues its command wherever it is
// pending.
func (q *queues) commit(e Entry) {
	for i, p := range q.pending {
		for j, cmd := range p {
			if cmd == e.Command {
				q.pending[i] = append(p[:j], p[j+1:]...)
				break
			}
		}
	}
	q.entries = append(q.entries, e)
}

// drain calls commitSlot until no commands are pending or maxSlots is
// reached, returning the committed entries.
func (q *queues) drain(maxSlots int, commitSlot func() (Entry, error)) ([]Entry, error) {
	var out []Entry
	for len(out) < maxSlots && q.Pending() > 0 {
		e, err := commitSlot()
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}
