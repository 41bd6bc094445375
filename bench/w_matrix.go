package main

import (
	"fmt"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	"expensive/internal/catalog/matrix"
	"expensive/internal/omission"
	"expensive/internal/sim"
)

// matrixSeeds is the per-cell seed range of one matrix round.
const matrixSeeds = 6

// catalogMatrix is the matrix-catalog job: every registered protocol
// under every library strategy at the default sizes, recorded violations
// shrunk.
func catalogMatrix(seed int64, seeds, parallelism int) *matrix.Matrix {
	from := seedBase(seed)
	return &matrix.Matrix{
		Seeds:       adversary.SeedRange{From: from, To: from + int64(seeds)},
		Shrink:      true,
		Parallelism: parallelism,
	}
}

func matrixCatalog() workload {
	return workload{
		name: "matrix-catalog",
		op:   "probe",
		setup: func(seed int64, div int) (*prepared, error) {
			seeds := scaled(matrixSeeds, div, 1)
			m := catalogMatrix(seed, seeds, 1)
			// Warm-up: the same grid over one seed per cell.
			if _, err := catalogMatrix(seed, 1, 1).Run(); err != nil {
				return nil, err
			}
			var digest string
			return &prepared{
				round: func() (roundOut, error) {
					t0 := time.Now()
					grid, err := m.Run()
					wall := time.Since(t0)
					if err != nil {
						return roundOut{}, err
					}
					out := roundOut{Attempted: grid.Probes, Work: float64(grid.Probes), Rate: float64(grid.Probes) / wall.Seconds()}
					if !grid.Broken() {
						out.Failed = grid.Probes // the FloodSet split must be found
					}
					out.Digest, err = digestJSON(grid)
					digest = out.Digest
					return out, err
				},
				// The same grid on the full-width cell pool must be
				// byte-identical.
				verify: func() error {
					grid, err := catalogMatrix(seed, seeds, 0).Run()
					if err != nil {
						return err
					}
					wide, err := digestJSON(grid)
					if err != nil {
						return err
					}
					if wide != digest {
						return fmt.Errorf("grid at full width (%s) differs from the serial grid (%s)", wide, digest)
					}
					return nil
				},
			}, nil
		},
		trace: traceMatrix,
	}
}

// traceMatrix probes the grid cell by cell itself (ProbeCell, then
// AssembleGrid), one span per cell, then replays every recorded violation
// through the evidence pipeline a violating seed pays for: full-tier run,
// trace validation, conformance, extraction, shrinking.
func traceMatrix(seed int64, div int, tr *tracer, m *metricSet) (int, int, error) {
	seeds := scaled(matrixSeeds, div, 1)
	job := catalogMatrix(seed, seeds, 1)
	strategies := adversary.Library(matrix.DefaultBias)
	sizes := matrix.DefaultSizes()
	ids := catalog.IDs()

	var stratIDs []string
	for _, s := range strategies {
		stratIDs = append(stratIDs, s.ID)
	}
	type perProto struct{ probes, msgs int }
	protos := make([]perProto, len(ids))
	var cells []matrix.Cell
	var specs []catalog.Spec
	root := tr.begin("bench.matrix_loop")
	for pi, id := range ids {
		spec, err := catalog.Get(id)
		if err != nil {
			return 0, 0, err
		}
		specs = append(specs, spec)
		for _, strat := range strategies {
			for _, size := range sizes {
				sp := tr.begin("matrix.probe_cell." + id)
				cell, err := matrix.ProbeCell(spec, strat, size, job.Seeds, matrix.CellOptions{Shrink: true, Parallelism: 1})
				tr.end(sp)
				if err != nil {
					return 0, 0, err
				}
				protos[pi].probes += cell.Probes
				protos[pi].msgs += cell.Messages.Sum
				cells = append(cells, cell)
			}
		}
	}
	sp := tr.begin("matrix.assemble")
	grid := matrix.AssembleGrid(ids, stratIDs, sizes, job.Seeds, cells)
	m.set("matrix.assemble_ms", float64(tr.end(sp).Nanoseconds())/1e6)
	tr.end(root)

	for pi, id := range ids {
		if protos[pi].probes == 0 {
			continue
		}
		total := tr.stat("matrix.probe_cell." + id).Total
		m.set("protocols."+id+".us_per_probe", float64(total.Nanoseconds())/1e3/float64(protos[pi].probes))
		m.set("protocols."+id+".msgs_per_probe", float64(protos[pi].msgs)/float64(protos[pi].probes))
	}
	m.set("matrix.cells", float64(len(grid.Cells)))
	m.set("matrix.skipped_cells", float64(grid.SkippedCells))
	m.set("matrix.violating_cells", float64(grid.ViolatingCells))

	// The engine's own sweep must produce the grid the bench assembled.
	t0 := time.Now()
	serial, err := job.Run()
	serialWall := time.Since(t0)
	if err != nil {
		return grid.Probes, grid.Probes, err
	}
	mine, err := digestJSON(grid)
	if err != nil {
		return grid.Probes, grid.Probes, err
	}
	theirs, err := digestJSON(serial)
	if err != nil {
		return grid.Probes, grid.Probes, err
	}
	failed := 0
	if mine != theirs || !grid.Broken() {
		failed = grid.Probes
	}
	t0 = time.Now()
	if _, err := catalogMatrix(seed, seeds, 0).Run(); err != nil {
		return grid.Probes, grid.Probes, err
	}
	m.set("runner.parallel_speedup.matrix", serialWall.Seconds()/time.Since(t0).Seconds())

	// Evidence pipeline, per recorded violation.
	replays, violations, steps := 0, 0, 0
	root = tr.begin("bench.evidence_loop")
	for i := range grid.Cells {
		cell := &grid.Cells[i]
		replays += cell.ViolationCount // every violating seed is re-run at the full tier once
		for _, v := range cell.Violations {
			if v.Plan == nil {
				continue
			}
			pi, _, _ := matrix.CellIndex(i, len(strategies), len(sizes))
			params := catalog.DefaultParams(cell.N, cell.T)
			opts, err := matrix.ShrinkOptionsFor(specs[pi], params)
			if err != nil {
				return grid.Probes, grid.Probes, err
			}
			env := adversary.Env{N: cell.N, T: cell.T, Rounds: opts.Rounds, Horizon: opts.Rounds + 2, Factory: opts.Factory}
			plan := v.Plan.Plan(env)
			sp := tr.begin("sim.run_full")
			e, err := sim.Run(sim.Config{N: cell.N, T: cell.T, Proposals: v.Proposals, MaxRounds: env.Horizon}, opts.Factory, plan)
			tr.end(sp)
			if err != nil {
				return grid.Probes, grid.Probes, fmt.Errorf("%s seed %d: replay: %w", cell.Protocol, v.Seed, err)
			}
			sp = tr.begin("omission.validate")
			err = omission.Validate(e)
			tr.end(sp)
			if err != nil {
				return grid.Probes, grid.Probes, fmt.Errorf("%s seed %d: %w", cell.Protocol, v.Seed, err)
			}
			sp = tr.begin("sim.conforms")
			err = sim.Conforms(e, opts.Factory, adversary.ByzantineSkip(plan, e.Faulty))
			tr.end(sp)
			if err != nil {
				return grid.Probes, grid.Probes, fmt.Errorf("%s seed %d: %w", cell.Protocol, v.Seed, err)
			}
			sp = tr.begin("adversary.extract")
			_, err = adversary.Extract(e, plan)
			tr.end(sp)
			if err != nil {
				return grid.Probes, grid.Probes, fmt.Errorf("%s seed %d: %w", cell.Protocol, v.Seed, err)
			}
			sp = tr.begin("adversary.shrink")
			sh, err := adversary.Shrink(v, opts)
			tr.end(sp)
			if err != nil {
				return grid.Probes, grid.Probes, fmt.Errorf("%s seed %d: shrink: %w", cell.Protocol, v.Seed, err)
			}
			violations++
			steps += sh.Steps
		}
	}
	tr.end(root)
	m.set("adversary.replay_full_count", float64(replays))
	m.set("adversary.shrink_replays", float64(steps))
	per := func(name string) float64 { // µs per replayed violation
		if violations == 0 {
			return 0
		}
		return float64(tr.stat(name).Total.Nanoseconds()) / 1e3 / float64(violations)
	}
	m.set("adversary.shrink_ms_per_violation", per("adversary.shrink")/1e3)
	m.set("omission.validate_us", per("omission.validate"))
	m.set("sim.conforms_us", per("sim.conforms"))
	return grid.Probes, failed, nil
}
