package main

import (
	"fmt"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
	"expensive/internal/smr"
	"expensive/internal/transport"
	"expensive/internal/transport/chaosnet"
	"expensive/internal/transport/memnet"
	"expensive/internal/transport/tcpnet"
)

// smrSlots is the slot count of one smr-live round; the replicated log
// runs phase-king at n=9 t=2.
const (
	smrSlots = 2048
	smrN     = 9
	smrT     = 2
)

func smrProtocol(int) (sim.Factory, int) {
	return phaseking.New(phaseking.Config{N: smrN, T: smrT}), phaseking.RoundBound(smrT)
}

// memMesh is a fresh in-process mesh per slot: instant delivery, so
// commit latency is processor time only.
func memMesh(int) ([]transport.Endpoint, func() error, error) {
	eps := memnet.New(smrN, nil).Endpoints()
	return eps, eps[0].Close, nil
}

// smrCommands derives the command sequence from the seed: one binary
// command per slot, submitted unanimously by every replica.
func smrCommands(seed int64, slots int) []smr.Command {
	return benchProposals(seed, adversary.Env{N: slots})
}

// logAPI is what the live log and its simulator-backed twin share.
type logAPI interface {
	Submit(replica proc.ID, cmd smr.Command) error
	CommitSlot() (smr.Entry, error)
}

// commitAll submits every command unanimously and commits its slot,
// returning the slots whose committed command is not the submitted one.
// around, when set, wraps each CommitSlot (the traced pass's span).
func commitAll(log logAPI, cmds []smr.Command, around func(commit func())) (failed int, err error) {
	for slot, cmd := range cmds {
		for r := 0; r < smrN; r++ {
			if err := log.Submit(proc.ID(r), cmd); err != nil {
				return failed, err
			}
		}
		var e smr.Entry
		if around != nil {
			around(func() { e, err = log.CommitSlot() })
		} else {
			e, err = log.CommitSlot()
		}
		if err != nil {
			return failed, fmt.Errorf("slot %d did not commit: %w", slot, err)
		}
		if e.Command != cmd {
			failed++
		}
	}
	return failed, nil
}

func newLive(mesh func(int) ([]transport.Endpoint, func() error, error), faulty func(int) proc.Set) (*smr.LiveLog, error) {
	return smr.NewLive(smr.LiveConfig{N: smrN, T: smrT, NoOp: msg.Zero, Protocol: smrProtocol, Mesh: mesh, Faulty: faulty})
}

func smrLive() workload {
	return workload{
		name: "smr-live",
		op:   "committed slot",
		setup: func(seed int64, div int) (*prepared, error) {
			cmds := smrCommands(seed, scaled(smrSlots, div, 16))
			warm, err := newLive(memMesh, nil)
			if err != nil {
				return nil, err
			}
			if _, err := commitAll(warm, cmds[:scaled(len(cmds), 4, 4)], nil); err != nil {
				return nil, err
			}
			var entries []smr.Entry
			return &prepared{
				round: func() (roundOut, error) {
					log, err := newLive(memMesh, nil)
					if err != nil {
						return roundOut{}, err
					}
					t0 := time.Now()
					failed, err := commitAll(log, cmds, nil)
					wall := time.Since(t0)
					if err != nil {
						return roundOut{}, err
					}
					entries = log.Entries()
					out := roundOut{Attempted: len(cmds), Failed: failed, Work: float64(len(cmds)), Rate: float64(len(cmds)) / wall.Seconds()}
					if len(entries) != len(cmds) || len(log.Divergences()) != 0 {
						out.Failed = len(cmds)
					}
					out.Digest, err = digestJSON(entries)
					return out, err
				},
				// The simulator-backed log over the same commands must
				// commit the same entries: same commands, rounds and
				// correct-replica message counts.
				verify: func() error {
					twin, err := smr.New(smr.Config{N: smrN, T: smrT, NoOp: msg.Zero, Protocol: smrProtocol})
					if err != nil {
						return err
					}
					if _, err := commitAll(twin, cmds, nil); err != nil {
						return err
					}
					live, err := digestJSON(entries)
					if err != nil {
						return err
					}
					simulated, err := digestJSON(twin.Entries())
					if err != nil {
						return err
					}
					if live != simulated {
						return fmt.Errorf("live log entries (%s) differ from the simulator-backed log's (%s)", live, simulated)
					}
					return nil
				},
			}, nil
		},
		trace: traceSMR,
	}
}

// traceSMR times every CommitSlot and, inside it, the bench-supplied
// mesh constructor; then the simulator-backed twin, the same log under
// the flaky chaos profile, and the transports underneath.
func traceSMR(seed int64, div int, tr *tracer, m *metricSet) (int, int, error) {
	cmds := smrCommands(seed, scaled(smrSlots, div, 16))
	slots := len(cmds)
	fail := func(err error) (int, int, error) { return slots, slots, err }

	log, err := newLive(func(slot int) ([]transport.Endpoint, func() error, error) {
		sp := tr.begin("smr.mesh_build")
		defer tr.end(sp)
		return memMesh(slot)
	}, nil)
	if err != nil {
		return fail(err)
	}
	root := tr.begin("bench.smr_loop")
	failed, err := commitAll(log, cmds, tr.spanning("smr.commit_slot"))
	tr.end(root)
	if err != nil {
		return fail(err)
	}
	if len(log.Entries()) != slots {
		failed = slots
	}
	lat := tr.durations("smr.commit_slot")
	commit, mesh := tr.stat("smr.commit_slot"), tr.stat("smr.mesh_build")
	m.set("smr.commit_p50_us", percentile(lat, 0.50)/1e3)
	m.set("smr.commit_p99_us", percentile(lat, 0.99)/1e3)
	m.set("smr.mesh_build_us_per_slot", float64(mesh.Total.Nanoseconds())/1e3/float64(slots))
	m.set("smr.commit_self_us_per_slot", float64(commit.Self.Nanoseconds())/1e3/float64(slots))
	m.set("smr.divergences", float64(len(log.Divergences())))

	twin, err := smr.New(smr.Config{N: smrN, T: smrT, NoOp: msg.Zero, Protocol: smrProtocol})
	if err != nil {
		return fail(err)
	}
	sp := tr.begin("smr.simlog_loop")
	_, err = commitAll(twin, cmds, nil)
	m.set("smr.simlog_commits_per_s", float64(slots)/tr.end(sp).Seconds())
	if err != nil {
		return fail(err)
	}

	// The flaky profile drops 15 % of payloads and delays 25 % of frames by
	// up to 8 ms within the fault budget: these three figures reflect
	// injected delay, not processor time.
	profile, _ := chaosnet.ByID("flaky")
	plan := func(slot int) *chaosnet.Plan {
		return profile.Build(seed+int64(slot), chaosnet.Env{N: smrN, T: smrT})
	}
	flaky, err := newLive(func(slot int) ([]transport.Endpoint, func() error, error) {
		eps := chaosnet.Wrap(memnet.New(smrN, nil).Endpoints(), plan(slot), nil)
		return eps, eps[0].Close, nil
	}, func(slot int) proc.Set { return plan(slot).Budget() })
	if err != nil {
		return fail(err)
	}
	flakySlots := scaled(200, div, 10)
	sp = tr.begin("bench.smr_flaky_loop")
	// Under faults a slot may commit the no-op, so only commitment itself
	// is required here; the online safety monitor is the check.
	_, err = commitAll(flaky, cmds[:flakySlots], tr.spanning("smr.commit_slot_flaky"))
	wall := tr.end(sp)
	if err != nil {
		return fail(err)
	}
	if len(flaky.Divergences()) != 0 {
		failed = slots
	}
	flat := tr.durations("smr.commit_slot_flaky")
	m.set("smr.flaky_commits_per_s", float64(flakySlots)/wall.Seconds())
	m.set("smr.flaky_commit_p50_ms", percentile(flat, 0.50)/1e6)
	m.set("smr.flaky_commit_p95_ms", percentile(flat, 0.95)/1e6)

	// The transports underneath: one phase-king n=16 cluster run per
	// mesh kind, time per synchronous round.
	const cn, ct = 16, 3
	factory, rounds := phaseking.New(phaseking.Config{N: cn, T: ct}), phaseking.RoundBound(ct)
	proposals := benchProposals(seed, adversary.Env{N: cn})
	cluster := func(name string, reps int, mesh func() ([]transport.Endpoint, func() error, error)) (float64, error) {
		var total time.Duration
		for i := 0; i < reps; i++ {
			eps, closeMesh, err := mesh()
			if err != nil {
				return 0, err
			}
			sp := tr.begin(name)
			results, err := transport.Cluster{N: cn, Endpoints: eps, Factory: factory, Proposals: proposals, Rounds: rounds}.Run()
			total += tr.end(sp)
			_ = closeMesh() // teardown failure cannot change a finished run
			if err != nil {
				return 0, err
			}
			if _, err := transport.CommonDecision(results, proc.Universe(cn)); err != nil {
				return 0, err
			}
		}
		return float64(total.Nanoseconds()) / 1e3 / float64(reps*rounds), nil
	}
	mem := func() ([]transport.Endpoint, func() error, error) {
		eps := memnet.New(cn, nil).Endpoints()
		return eps, eps[0].Close, nil
	}
	memRound, err := cluster("memnet.cluster", scaled(200, div, 5), mem)
	if err != nil {
		return fail(err)
	}
	m.set("memnet.cluster_round_us", memRound)
	tcpRound, err := cluster("tcpnet.cluster", scaled(20, div, 2), func() ([]transport.Endpoint, func() error, error) {
		mesh, err := tcpnet.New(cn)
		if err != nil {
			return nil, nil, err
		}
		return mesh.Endpoints(), mesh.Close, nil
	})
	if err != nil {
		return fail(err)
	}
	m.set("tcpnet.cluster_round_us", tcpRound)

	// dup-reorder injects no delay of its own, so plain ÷ wrapped is what
	// the wrapper and the held-back frames cost.
	dup, _ := chaosnet.ByID("dup-reorder")
	dupPlan := dup.Build(seed, chaosnet.Env{N: cn})
	wrapped, err := cluster("chaosnet.cluster", scaled(20, div, 2), func() ([]transport.Endpoint, func() error, error) {
		eps := chaosnet.Wrap(memnet.New(cn, nil).Endpoints(), dupPlan, nil)
		return eps, eps[0].Close, nil
	})
	if err != nil {
		return fail(err)
	}
	m.set("chaosnet.wrap_overhead_ratio", memRound/wrapped)

	calls := scaled(1<<18, div, 1<<10)
	sp = tr.begin("chaosnet.faults")
	hits := 0
	for i := 0; i < calls; i++ {
		if f := dupPlan.Faults(proc.ID(i%cn), proc.ID((i+1)%cn), i); f.Duplicate {
			hits++
		}
	}
	m.set("chaosnet.faults_ns", float64(tr.end(sp).Nanoseconds())/float64(calls))
	if hits == 0 {
		failed = slots // a 20 % duplicate rule that never fires is broken
	}
	return slots, failed, nil
}
