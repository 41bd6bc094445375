package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all"
	"expensive/internal/catalog/matrix"
	"expensive/internal/experiments/runner"
	"expensive/internal/msg"
	"expensive/internal/obs"
	"expensive/internal/sim"
)

// huntSeeds is the seed range of one hunt round (≈0.35 s on the
// reference box).
const huntSeeds = 4096

// huntCampaign is the hunt-omission job: FloodSet at n=8 t=2 under
// random-omission(40), the lean-tier sweep the ROADMAP hot-path targets
// are stated on.
func huntCampaign(from int64, seeds, parallelism int) (*adversary.Campaign, error) {
	spec, err := catalog.Get("floodset")
	if err != nil {
		return nil, err
	}
	c, err := matrix.CampaignFor(spec, catalog.DefaultParams(8, 2), adversary.RandomOmission(matrix.DefaultBias),
		adversary.SeedRange{From: from, To: from + int64(seeds)})
	if err != nil {
		return nil, err
	}
	c.MaxViolations = 1
	c.Parallelism = parallelism
	return c, nil
}

// timedCampaign runs c and returns the report with the bench's own wall
// time (the report's timing fields are the program's, not ours).
func timedCampaign(c *adversary.Campaign) (*adversary.CampaignReport, time.Duration, error) {
	t0 := time.Now()
	rep, err := c.Run()
	return rep, time.Since(t0), err
}

func huntOmission() workload {
	return workload{
		name: "hunt-omission",
		op:   "probe",
		setup: func(seed int64, div int) (*prepared, error) {
			from, seeds := seedBase(seed), scaled(huntSeeds, div, 64)
			c, err := huntCampaign(from, seeds, 1)
			if err != nil {
				return nil, err
			}
			warm, err := huntCampaign(from, scaled(seeds, 4, 16), 1)
			if err != nil {
				return nil, err
			}
			if _, err := warm.Run(); err != nil {
				return nil, err
			}
			var last *adversary.CampaignReport
			return &prepared{
				round: func() (roundOut, error) {
					rep, wall, err := timedCampaign(c)
					if err != nil {
						return roundOut{}, err
					}
					last = rep
					out := roundOut{Attempted: seeds, Work: float64(seeds), Rate: float64(seeds) / wall.Seconds()}
					if rep.Probes != seeds {
						out.Failed = seeds
					}
					out.Digest, err = digestJSON(rep)
					return out, err
				},
				// The two halves of the range, swept on the full-width pool,
				// must merge into the serial report: the determinism contract
				// checked through another schedule and another cut.
				verify: func() error {
					half := seeds / 2
					var probes, violations int
					var msgs, rounds adversary.Histogram
					for _, r := range [][2]int{{0, half}, {half, seeds}} {
						h, err := huntCampaign(from+int64(r[0]), r[1]-r[0], 0)
						if err != nil {
							return err
						}
						rep, err := h.Run()
						if err != nil {
							return err
						}
						probes += rep.Probes
						violations += rep.ViolationCount
						msgs, rounds = msgs.Merge(rep.Messages), rounds.Merge(rep.RoundsHist)
					}
					got, err := digestJSON(probes, violations, msgs, rounds)
					if err != nil {
						return err
					}
					want, err := digestJSON(last.Probes, last.ViolationCount, last.Messages, last.RoundsHist)
					if err != nil {
						return err
					}
					if got != want {
						return fmt.Errorf("halves swept in parallel do not merge into the serial report (%d probes, %d violations vs %d, %d)",
							probes, violations, last.Probes, last.ViolationCount)
					}
					return nil
				},
			}, nil
		},
		trace: traceHunt,
	}
}

// benchProposals is the bench's own seeded input generator for the
// traced loop: uniform bits from a splitmix64 stream. The campaign's
// default generator is not exported, so the traced loop and the campaign
// it is compared with both take this one.
func benchProposals(seed int64, env adversary.Env) []msg.Value {
	x := uint64(seed)
	out := make([]msg.Value, env.N)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = msg.Bit(int((z ^ (z >> 31)) & 1))
	}
	return out
}

// leanConfig is a probe's simulator configuration at the lean recording
// tier. It is a function of its own, calling nothing, because balint's
// leantier analyzer treats every function that names sim.RecordDecisions
// as a lean probe loop and follows its calls: the traced passes also call
// Campaign.Run and Shrink, which reach the full-trace validators.
func leanConfig(n, t int, proposals []msg.Value, horizon int) sim.Config {
	return sim.Config{N: n, T: t, Proposals: proposals, MaxRounds: horizon, Recording: sim.RecordDecisions}
}

// traceHunt drives Build → sim.Run → CheckExecution per seed itself, one
// span per call, and compares the pieces with Campaign.Run over the same
// seeds and proposals.
func traceHunt(seed int64, div int, tr *tracer, m *metricSet) (int, int, error) {
	from, seeds := seedBase(seed), scaled(huntSeeds, div, 64)
	c, err := huntCampaign(from, seeds, 1)
	if err != nil {
		return 0, 0, err
	}
	c.Proposals = benchProposals
	env := adversary.Env{N: c.N, T: c.T, Rounds: c.Rounds, Horizon: c.Rounds + 2, Factory: c.Factory}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(seeds) }

	// Warm the pools both loops draw from.
	if warm, err := huntCampaign(from, scaled(seeds, 16, 16), 1); err != nil {
		return 0, 0, err
	} else if _, err := warm.Run(); err != nil {
		return 0, 0, err
	}

	root := tr.begin("bench.hunt_loop")
	violations, msgSum := 0, 0
	for i := 0; i < seeds; i++ {
		s := from + int64(i)
		id := tr.begin("adversary.build")
		plan := c.Strategy.Build(s, env)
		tr.end(id)
		proposals := benchProposals(s, env)
		cfg := leanConfig(c.N, c.T, proposals, env.Horizon)
		id = tr.begin("sim.run_lean")
		e, err := sim.Run(cfg, c.Factory, plan)
		tr.end(id)
		if err != nil {
			return seeds, seeds, err
		}
		id = tr.begin("adversary.check")
		v := adversary.CheckExecution(e, proposals, c.Validity, c.Agreement)
		tr.end(id)
		if v != nil {
			violations++
		}
		msgSum += e.CorrectMessages()
	}
	loopWall := tr.end(root)

	// The same factory and proposals with no adversary: what the plan's
	// per-message consultation adds to a simulator run.
	root = tr.begin("bench.hunt_nofaults_loop")
	for i := 0; i < seeds; i++ {
		cfg := leanConfig(c.N, c.T, benchProposals(from+int64(i), env), env.Horizon)
		id := tr.begin("sim.run_nofaults")
		_, err := sim.Run(cfg, c.Factory, sim.NoFaults{})
		tr.end(id)
		if err != nil {
			return seeds, seeds, err
		}
	}
	tr.end(root)

	id := tr.begin("adversary.campaign_run")
	a0 := readAllocs()
	rep, err := c.Run()
	mallocs, bytes := a0.since()
	campaignWall := tr.end(id)
	if err != nil {
		return seeds, seeds, err
	}
	failed := 0
	if rep.Probes != seeds || rep.ViolationCount != violations || rep.Messages.Sum != msgSum {
		failed = seeds // the bench's own loop and the campaign disagree
	}

	build, run, check := tr.stat("adversary.build").Total, tr.stat("sim.run_lean").Total, tr.stat("adversary.check").Total
	nofaults := tr.stat("sim.run_nofaults").Total
	m.set("adversary.build_us_per_probe", per(build))
	m.set("adversary.consult_us_per_probe", per(run-nofaults))
	m.set("adversary.check_us_per_probe", per(check))
	m.set("adversary.fold_us_per_probe", per(campaignWall-build-run-check))
	m.set("adversary.allocs_per_probe", mallocs/float64(seeds))
	m.set("adversary.bytes_per_probe", bytes/float64(seeds))
	m.set("sim.lean_us_per_probe", per(nofaults))

	// The workload as the untraced run executes it (default proposals),
	// dark, with a live recorder, and on the full-width pool.
	rate := func(ctx context.Context, parallelism int) (float64, error) {
		h, err := huntCampaign(from, seeds, parallelism)
		if err != nil {
			return 0, err
		}
		h.Ctx = ctx
		var rates []float64
		for i := 0; i < 3; i++ {
			_, wall, err := timedCampaign(h)
			if err != nil {
				return 0, err
			}
			rates = append(rates, float64(seeds)/wall.Seconds())
		}
		return median(rates), nil
	}
	dark, err := rate(nil, 1)
	if err != nil {
		return seeds, seeds, err
	}
	lit, err := rate(obs.Into(context.Background(), obs.New()), 1)
	if err != nil {
		return seeds, seeds, err
	}
	wide, err := rate(nil, 0)
	if err != nil {
		return seeds, seeds, err
	}
	m.set("bench.tracing_overhead_ratio", float64(seeds)/loopWall.Seconds()/dark)
	m.set("obs.telemetry_overhead_ratio", lit/dark)
	m.set("runner.parallel_speedup.hunt", wide/dark)

	// runner.Map over a no-op: the pool's own cost per job.
	jobs := scaled(1<<18, div, 1<<10)
	for _, p := range []struct {
		name    string
		workers int
	}{{"runner.map_overhead_ns_per_job.p1", 1}, {"runner.map_overhead_ns_per_job.pn", runtime.NumCPU()}} {
		t0 := time.Now()
		if _, err := runner.Map(context.Background(), p.workers, jobs, func(int) (struct{}, error) { return struct{}{}, nil }); err != nil {
			return seeds, seeds, err
		}
		m.set(p.name, float64(time.Since(t0).Nanoseconds())/float64(jobs))
	}
	return seeds, failed, nil
}
