package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/proc"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
)

// enginePart is one (n, recording tier) point of the engine workloads:
// phase-king with no adversary, so the plan, the RNG and the campaign
// fold are all bypassed and only the round loop, the scratch buffers and
// the protocol's Step run.
type enginePart struct {
	n, t, rounds int
	runs         int // simulator runs per round
	rec          sim.Recording
	factory      sim.Factory
}

func newEnginePart(n, runs int, rec sim.Recording) enginePart {
	t := (n - 1) / 4
	return enginePart{n: n, t: t, rounds: phaseking.RoundBound(t), runs: runs, rec: rec,
		factory: phaseking.New(phaseking.Config{N: n, T: t})}
}

func (p enginePart) config(seed int64, run int) sim.Config {
	env := adversary.Env{N: p.n}
	return sim.Config{N: p.n, T: p.t, Proposals: benchProposals(seed+int64(run)*7919, env),
		MaxRounds: p.rounds + 2, Recording: p.rec}
}

// flushPools empties the simulator's pooled scratch buffers before a
// part runs (a sync.Pool entry survives one collection in the victim
// cache, so two). Without it the n=16 runs inherit the n=256 run's
// scratch and clear 256² inboxes per 16-process run — 4.6 M msgs/s
// instead of 14 M — or not, depending on whether a collection happened
// to intervene, which made the part bimodal. One size per process is how
// the engine is used; the sweep must not measure its own ordering.
func flushPools() {
	runtime.GC()
	runtime.GC()
}

// partOut is the outcome of one part's runs.
type partOut struct {
	msgs   int
	wall   time.Duration
	failed int
}

// wantMsgs is what every fault-free phase-king run sends, whatever the
// proposals: each of the t+1 phases is one all-to-all round, n(n-1)
// messages, and one king broadcast, n-1.
func (p enginePart) wantMsgs() int { return (p.t + 1) * (p.n*p.n - 1) }

// sweep executes the part's runs. Every run must reach a common decision
// and send exactly wantMsgs correct-process messages. between, when set,
// wraps each sim.Run in a span.
func (p enginePart) sweep(seed int64, h hash.Hash, between func(run func())) (partOut, error) {
	var out partOut
	all := proc.Universe(p.n)
	for i := 0; i < p.runs; i++ {
		cfg := p.config(seed, i)
		var e *sim.Execution
		var err error
		t0 := time.Now()
		if between != nil {
			between(func() { e, err = sim.Run(cfg, p.factory, sim.NoFaults{}) })
		} else {
			e, err = sim.Run(cfg, p.factory, sim.NoFaults{})
		}
		out.wall += time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("n=%d run %d: %w", p.n, i, err)
		}
		msgs := e.CorrectMessages()
		out.msgs += msgs
		d, derr := e.CommonDecision(all)
		if derr != nil || msgs != p.wantMsgs() {
			out.failed++
		}
		fmt.Fprintf(h, "%d|%d|%s|%d\n", p.n, i, d, msgs)
	}
	return out, nil
}

// oracle runs the part's first configuration at the other recording
// tier and returns its message count: the two tiers must agree on what
// the lean tier records.
func (p enginePart) oracle(seed int64) (int, error) {
	cfg := p.config(seed, 0)
	cfg.Recording = sim.RecordFull
	if p.rec == sim.RecordFull {
		cfg.Recording = sim.RecordDecisions
	}
	e, err := sim.Run(cfg, p.factory, sim.NoFaults{})
	if err != nil {
		return 0, err
	}
	_, err = e.CommonDecision(proc.Universe(p.n))
	return e.CorrectMessages(), err
}

// engineWorkload builds a workload from parts. Its rate is the geometric
// mean of the parts' simulated messages per host second, so no size
// dominates; attempted counts simulator runs.
func engineWorkload(name string, parts func(div int) []enginePart, trace func(int64, int, *tracer, *metricSet) (int, int, error)) workload {
	return workload{
		name: name,
		op:   "simulated message",
		setup: func(seed int64, div int) (*prepared, error) {
			ps := parts(div)
			for _, p := range ps {
				if p.n > 64 {
					continue // one n=256 run is a third of a second: no warm-up
				}
				warm := p
				warm.runs = scaled(p.runs, 4, 1)
				if _, err := warm.sweep(seed, sha256.New(), nil); err != nil {
					return nil, err
				}
			}
			return &prepared{
				round: func() (roundOut, error) {
					var out roundOut
					var rates []float64
					h := sha256.New()
					for _, p := range ps {
						flushPools()
						po, err := p.sweep(seed, h, nil)
						if err != nil {
							return out, err
						}
						out.Attempted += p.runs
						out.Failed += po.failed
						out.Work += float64(po.msgs)
						rates = append(rates, float64(po.msgs)/po.wall.Seconds())
					}
					out.Rate = geomean(rates)
					out.Digest = hex.EncodeToString(h.Sum(nil))
					return out, nil
				},
				verify: func() error {
					for _, p := range ps {
						if p.n > 64 {
							continue // a full n=256 trace is 8 M recorded messages
						}
						msgs, err := p.oracle(seed)
						if err != nil {
							return err
						}
						if msgs != p.wantMsgs() {
							return fmt.Errorf("n=%d: the other recording tier counts %d messages, this one %d", p.n, msgs, p.wantMsgs())
						}
					}
					return nil
				},
			}, nil
		},
		trace: trace,
	}
}

func leanParts(div int) []enginePart {
	parts := []enginePart{
		newEnginePart(16, scaled(1024, div, 4), sim.RecordDecisions),
		newEnginePart(64, scaled(32, div, 1), sim.RecordDecisions),
	}
	if div == 1 { // one n=256 run is 8 M messages; the smoke test leaves it out
		parts = append(parts, newEnginePart(256, 1, sim.RecordDecisions))
	}
	return parts
}

func fullParts(div int) []enginePart {
	return []enginePart{newEnginePart(64, scaled(32, div, 1), sim.RecordFull)}
}

func engineSweep() workload {
	return engineWorkload("engine-sweep", leanParts, func(seed int64, div int, tr *tracer, m *metricSet) (int, int, error) {
		names := []string{"sim.lean_msgs_per_s.n16", "sim.lean_msgs_per_s.n64", "sim.lean_msgs_per_s.n256"}
		return traceEngine(seed, leanParts(div), names, "sim.lean_allocs_per_run.n64", tr, m)
	})
}

func engineFull() workload {
	return engineWorkload("engine-full", fullParts, func(seed int64, div int, tr *tracer, m *metricSet) (int, int, error) {
		return traceEngine(seed, fullParts(div), []string{"sim.full_msgs_per_s.n64"}, "sim.full_allocs_per_run.n64", tr, m)
	})
}

// traceEngine runs each part once with a span per sim.Run and stores the
// part's message rate under names[i]; allocName takes the n=64 part's
// heap allocations per run.
func traceEngine(seed int64, parts []enginePart, names []string, allocName string, tr *tracer, m *metricSet) (int, int, error) {
	attempted, failed := 0, 0
	for i, p := range parts {
		flushPools()
		root := tr.begin(fmt.Sprintf("bench.engine_loop.n%d", p.n))
		a0 := readAllocs()
		out, err := p.sweep(seed, sha256.New(), tr.spanning("sim.run"))
		mallocs, _ := a0.since()
		tr.end(root)
		if err != nil {
			return attempted, failed, err
		}
		attempted += p.runs
		failed += out.failed
		m.set(names[i], float64(out.msgs)/out.wall.Seconds())
		if p.n == 64 {
			m.set(allocName, mallocs/float64(p.runs))
		}
	}
	return attempted, failed, nil
}
