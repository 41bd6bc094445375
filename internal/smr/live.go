package smr

import (
	"context"
	"fmt"

	"expensive/internal/experiments/runner"
	"expensive/internal/msg"
	"expensive/internal/obs"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/transport"
)

// LiveConfig wires a replicated log that commits slots over a real
// transport mesh instead of the recording simulator — the configuration
// the chaos soak drives: each slot is one live agreement instance, and
// the mesh builder typically hands back chaosnet-wrapped endpoints so
// every slot runs under deterministic wire faults.
type LiveConfig struct {
	N int
	T int
	// Protocol builds one agreement instance per slot: the machine factory
	// and its round bound.
	Protocol func(slot int) (sim.Factory, int)
	// Mesh builds a fresh mesh for one slot: the endpoints and a teardown.
	// Fresh per slot by design — cross-slot frame leakage would alias
	// rounds between agreement instances. Wrap the endpoints here
	// (chaosnet.Wrap, tcpnet, ...) to pick the substrate and faults.
	Mesh func(slot int) (eps []transport.Endpoint, closeMesh func() error, err error)
	// Faulty names the processes the safety monitor must not trust at a
	// slot (a chaos plan's budget set, typically). Nil means all correct.
	Faulty func(slot int) proc.Set
	// NoOp is proposed by replicas with empty queues.
	NoOp Command
	// Ctx carries the obs recorder for the liveness monitor's metrics
	// (smr_live_commits, smr_live_divergences, smr_commit_ns histogram).
	Ctx context.Context
}

// Divergence is a safety-monitor finding: at a slot, processes outside
// the faulty set failed to agree. Under a chaos plan whose faults stay
// within the protocol's resilience this must never happen — one recorded
// divergence fails the soak.
type Divergence struct {
	Slot      int
	Detail    string
	Decisions map[proc.ID]msg.Value
}

// LiveLog is the over-the-wire replicated log with online monitors:
// safety (non-faulty replicas never diverge) checked at every commit,
// liveness (slots keep committing, latency histogram) fed to obs.
type LiveLog struct {
	queues
	cfg LiveConfig

	divergences []Divergence

	commitsC   *obs.Counter
	divergedC  *obs.Counter
	commitHist *obs.Histogram
}

// NewLive creates an empty live replicated log.
func NewLive(cfg LiveConfig) (*LiveLog, error) {
	q, err := newQueues(cfg.N, cfg.T, cfg.Protocol)
	if err != nil {
		return nil, err
	}
	if cfg.Mesh == nil {
		return nil, fmt.Errorf("smr: live log needs a mesh builder")
	}
	rec := obs.From(cfg.Ctx)
	commitHist := rec.Histogram("smr_commit_ns")
	if commitHist == nil {
		// LatencyP50P99 is part of the log's own interface, not telemetry:
		// with no recorder on the context the log keeps the histogram itself.
		commitHist = &obs.Histogram{}
	}
	return &LiveLog{
		queues:     q,
		cfg:        cfg,
		commitsC:   rec.Counter("smr_live_commits"),
		divergedC:  rec.Counter("smr_live_divergences"),
		commitHist: commitHist,
	}, nil
}

// Divergences returns every safety violation the monitor recorded.
func (l *LiveLog) Divergences() []Divergence {
	out := make([]Divergence, len(l.divergences))
	copy(out, l.divergences)
	return out
}

// correct is the trusted set at a slot: everyone minus the faulty set.
func (l *LiveLog) correct(slot int) proc.Set {
	all := proc.Universe(l.cfg.N)
	if l.cfg.Faulty == nil {
		return all
	}
	return all.Diff(l.cfg.Faulty(slot))
}

// CommitSlot runs one live agreement instance over a fresh mesh and
// appends the committed entry. The safety monitor runs inline: if the
// trusted replicas split, the divergence is recorded (and counted in
// obs) and the slot commits the lowest-ID trusted decision so the log —
// and the soak driving it — keeps moving and can report every violation
// instead of dying on the first.
func (l *LiveLog) CommitSlot() (Entry, error) {
	if ctx := l.cfg.Ctx; ctx != nil {
		select {
		case <-ctx.Done():
			return Entry{}, ctx.Err()
		default:
		}
	}
	slot := len(l.entries)
	factory, rounds := l.cfg.Protocol(slot)
	proposals := l.proposals(l.cfg.NoOp)
	eps, closeMesh, err := l.cfg.Mesh(slot)
	if err != nil {
		return Entry{}, fmt.Errorf("smr slot %d: mesh: %w", slot, err)
	}
	sw := runner.StartWall()
	results, err := transport.Cluster{
		N:         l.cfg.N,
		Endpoints: eps,
		Factory:   factory,
		Proposals: proposals,
		Rounds:    rounds,
	}.Run()
	if closeMesh != nil {
		_ = closeMesh()
	}
	if err != nil {
		return Entry{}, fmt.Errorf("smr slot %d: %w", slot, err)
	}
	l.commitHist.Observe(int64(sw.Wall()))

	correct := l.correct(slot)
	decision, derr := transport.CommonDecision(results, correct)
	if derr != nil {
		// Safety violation (or a trusted replica stuck undecided): record
		// it, pick the lowest-ID trusted decision, and keep committing.
		seen := make(map[proc.ID]msg.Value, correct.Len())
		decision = msg.NoDecision
		for _, id := range correct.Members() {
			if results[id].Decided {
				seen[id] = results[id].Decision
				if decision == msg.NoDecision {
					decision = results[id].Decision
				}
			}
		}
		l.divergences = append(l.divergences, Divergence{Slot: slot, Detail: derr.Error(), Decisions: seen})
		l.divergedC.Inc()
		if decision == msg.NoDecision {
			return Entry{}, fmt.Errorf("smr slot %d: no trusted replica decided: %w", slot, derr)
		}
	}

	sent := 0
	for _, id := range correct.Members() {
		sent += results[id].Sent
	}
	entry := Entry{Slot: slot, Command: decision, Messages: sent, Rounds: rounds}
	l.commit(entry)
	l.commitsC.Inc()
	return entry, nil
}

// Drain commits slots until no commands are pending or maxSlots is
// reached, returning the committed entries.
func (l *LiveLog) Drain(maxSlots int) ([]Entry, error) { return l.drain(maxSlots, l.CommitSlot) }

// LatencyP50P99 reads the liveness monitor: the p50 and p99 commit
// latencies in nanoseconds observed so far (zeros before any commit).
func (l *LiveLog) LatencyP50P99() (p50, p99 int64) {
	return l.commitHist.Quantile(0.50), l.commitHist.Quantile(0.99)
}
