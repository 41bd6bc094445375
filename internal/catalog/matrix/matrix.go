// Package matrix is the registry-driven sweep engine on top of the
// protocol catalog: it fans the full protocol × strategy × (n, t)
// cross-product out over the experiment runner's worker pool, skipping
// cells outside a protocol's resilience condition, and emits a
// deterministic JSON grid report — byte-identical at every parallelism
// level, exactly like campaign reports and experiment tables. It also
// carries the campaign/SMR/cluster glue that wires catalog specs into
// the rest of the library.
package matrix

import (
	"context"
	"errors"
	"fmt"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	"expensive/internal/experiments/runner"
	"expensive/internal/obs"
)

// DefaultBias is the omission percentage the default strategy library
// uses for its random-omission family.
const DefaultBias = 40

// Size is one (n, t) grid point.
type Size struct {
	N int `json:"n"`
	T int `json:"t"`
}

// DefaultSizes returns the canonical grid points: a size below every
// threshold family (4, 1), the smallest size admitting n > 4t protocols
// (5, 1), and a two-fault system (8, 2) that excludes the n > 4t and
// exact-Γ families — so a default grid always demonstrates resilience
// skipping.
func DefaultSizes() []Size { return []Size{{4, 1}, {5, 1}, {8, 2}} }

// Matrix sweeps protocols × strategies × sizes. The zero value plus a
// seed range is runnable: every unset field falls back to the full
// registry, the full strategy library, and the default sizes.
type Matrix struct {
	// Protocols defaults to every registered spec in ID order.
	Protocols []catalog.Spec
	// Strategies defaults to adversary.Library(DefaultBias).
	Strategies []adversary.Named
	// Sizes defaults to DefaultSizes(); every entry needs n >= 2 and
	// 1 <= t < n.
	Sizes []Size
	// Seeds is the per-cell seed range (required, non-empty).
	Seeds adversary.SeedRange
	// Params builds the cell construction parameters at (n, t); default
	// catalog.DefaultParams, which is what keeps grids reproducible.
	Params func(n, t int) catalog.Params
	// MaxViolations caps the violations recorded per cell (0 = 1; every
	// violating seed is still counted).
	MaxViolations int
	// Shrink minimizes recorded violations. Off by default: a matrix is a
	// breadth instrument; re-hunt one cell with `baexp hunt -shrink` for
	// depth.
	Shrink bool
	// Parallelism is the cell worker count; <= 0 means NumCPU, 1 serial.
	// Cells are the parallel unit — each cell's campaign runs serially —
	// so the grid is byte-identical at every level.
	Parallelism int
	// Ctx cancels the sweep; nil means context.Background().
	Ctx context.Context
}

// Cell is one grid entry: a protocol under a strategy at a size. Skipped
// cells carry the resilience condition that excluded them; run cells
// carry the campaign's deterministic statistics.
type Cell struct {
	Protocol string `json:"protocol"`
	Strategy string `json:"strategy"`
	N        int    `json:"n"`
	T        int    `json:"t"`
	// Skipped marks an (n, t) outside the protocol's resilience condition
	// (or a builder refusal); Reason says why.
	Skipped bool   `json:"skipped,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Probes counts executed seeds; ViolationCount the violating ones.
	Probes         int `json:"probes,omitempty"`
	ViolationCount int `json:"violation_count,omitempty"`
	// FirstViolationProbe is the 1-based index of the cell's first
	// violating probe in seed order, 0 (omitted) when the cell stayed
	// clean — the same probes-to-first-violation metric campaign and fuzz
	// reports carry, and just as deterministic.
	FirstViolationProbe int `json:"first_violation_probe,omitempty"`
	// Violations records up to MaxViolations violations in seed order.
	Violations []*adversary.Violation `json:"violations,omitempty"`
	// Messages and Rounds are the campaign's exact-value histograms.
	Messages adversary.Histogram `json:"messages"`
	Rounds   adversary.Histogram `json:"rounds"`
}

// Broken reports whether the cell found at least one violation.
func (c *Cell) Broken() bool { return c.ViolationCount > 0 }

// Grid is the deterministic matrix report: everything in the JSON
// encoding depends only on the matrix inputs, never on scheduling.
// Wall-clock statistics ride alongside, excluded from the encoding.
type Grid struct {
	// StreamVersion is the adversary.StreamVersion every cell's campaign
	// drew its plans and proposals under.
	StreamVersion int                 `json:"stream_version"`
	Protocols     []string            `json:"protocols"`
	Strategies    []string            `json:"strategies"`
	Sizes         []Size              `json:"sizes"`
	Seeds         adversary.SeedRange `json:"seeds"`
	// Cells holds one entry per (protocol, strategy, size), protocol-major
	// in the order of the Protocols/Strategies/Sizes headers.
	Cells []Cell `json:"cells"`
	// Probes totals the executed probes; SkippedCells and ViolatingCells
	// summarize the grid.
	Probes         int `json:"probes"`
	SkippedCells   int `json:"skipped_cells"`
	ViolatingCells int `json:"violating_cells"`

	// Timing statistics (always carried; excluded from the JSON encoding).
	Wall         time.Duration `json:"-"`
	WallMS       float64       `json:"-"`
	ProbesPerSec float64       `json:"-"`
	Workers      int           `json:"-"`
}

// Broken reports whether any cell found a violation.
func (g *Grid) Broken() bool { return g.ViolatingCells > 0 }

// withDefaults resolves the unset fields against the registry.
func (m *Matrix) withDefaults() (Matrix, error) {
	r := *m
	if r.Protocols == nil {
		r.Protocols = catalog.Protocols()
	}
	if r.Strategies == nil {
		r.Strategies = adversary.Library(DefaultBias)
	}
	if r.Sizes == nil {
		r.Sizes = DefaultSizes()
	}
	if r.Params == nil {
		r.Params = catalog.DefaultParams
	}
	if r.MaxViolations <= 0 {
		r.MaxViolations = 1
	}
	switch {
	case len(r.Protocols) == 0:
		return r, fmt.Errorf("matrix: no protocols registered")
	case len(r.Strategies) == 0:
		return r, fmt.Errorf("matrix: no strategies")
	case r.Seeds.Count() == 0:
		return r, fmt.Errorf("matrix: empty seed range [%d, %d)", r.Seeds.From, r.Seeds.To)
	}
	for _, s := range r.Sizes {
		if s.N < 2 || s.T < 1 || s.T >= s.N {
			return r, fmt.Errorf("matrix: size needs n >= 2 and 1 <= t < n, got n=%d t=%d", s.N, s.T)
		}
	}
	return r, nil
}

// Err reports what Run would refuse before probing anything: an empty
// header or seed range, or a size outside 1 <= t < n.
func (m *Matrix) Err() error {
	_, err := m.withDefaults()
	return err
}

// Run executes the sweep on the worker pool and returns the grid. Errors
// indicate harness failures (an engine-invalid trace, a non-conformant
// machine), never protocol-property violations — those land in the cells.
func (m *Matrix) Run() (*Grid, error) {
	r, err := m.withDefaults()
	if err != nil {
		return nil, err
	}
	nCells := len(r.Protocols) * len(r.Strategies) * len(r.Sizes)
	workers := runner.Workers(r.Parallelism)
	sw := runner.StartWall()
	mo := matrixObsFrom(r.Ctx)
	if mo.sink != nil {
		mo.sink.Emit("matrix-start",
			"protocols", len(r.Protocols), "strategies", len(r.Strategies),
			"sizes", len(r.Sizes), "cells", nCells,
			"seeds", r.Seeds.Count(), "workers", workers)
	}

	opts := CellOptions{
		Params:        r.Params,
		MaxViolations: r.MaxViolations,
		Shrink:        r.Shrink,
		Parallelism:   1, // cells are the parallel unit; see Matrix.Parallelism
		Ctx:           r.Ctx,
	}
	cells, err := runner.Map(r.Ctx, workers, nCells, func(i int) (Cell, error) {
		pi, si, zi := CellIndex(i, len(r.Strategies), len(r.Sizes))
		return ProbeCell(r.Protocols[pi], r.Strategies[si], r.Sizes[zi], r.Seeds, opts)
	})
	if err != nil {
		return nil, err
	}

	protocols := make([]string, len(r.Protocols))
	for i, s := range r.Protocols {
		protocols[i] = s.ID
	}
	strategies := make([]string, len(r.Strategies))
	for i, s := range r.Strategies {
		strategies[i] = s.ID
	}
	g := AssembleGrid(protocols, strategies, r.Sizes, r.Seeds, cells)
	g.Workers = workers
	g.Wall, g.WallMS, g.ProbesPerSec = sw.WallStats(g.Probes)
	mo.cellsSkipped.Add(int64(g.SkippedCells))
	mo.cellsViolating.Add(int64(g.ViolatingCells))
	if mo.sink != nil {
		mo.sink.Emit("matrix-end",
			"cells", len(g.Cells), "skipped", g.SkippedCells,
			"violating", g.ViolatingCells, "probes", g.Probes)
	}
	return g, nil
}

// matrixObs bundles the sweep's telemetry handles, resolved once per Run
// from the recorder on the context. Zero value = telemetry off. Per-probe
// accounting comes from the cells' campaigns (which share the context);
// this layer only adds cell-granularity counters and events.
type matrixObs struct {
	cells          *obs.Counter // matrix_cells: cells executed (skips included)
	cellsSkipped   *obs.Counter // matrix_cells_skipped: resilience refusals
	cellsViolating *obs.Counter // matrix_cells_violating: cells with violations
	sink           *obs.Sink
}

func matrixObsFrom(ctx context.Context) matrixObs {
	rec := obs.From(ctx)
	return matrixObs{
		cells:          rec.Counter("matrix_cells"),
		cellsSkipped:   rec.Counter("matrix_cells_skipped"),
		cellsViolating: rec.Counter("matrix_cells_violating"),
		sink:           rec.Sink(),
	}
}

// CellIndex decomposes a linear cell index into (protocol, strategy,
// size) indices — size fastest, protocol-major, matching the order of
// Grid.Cells. It is the shared unit-numbering contract between Run and
// the distributed coordinator: both enumerate cells identically, which is
// what makes a sharded grid byte-identical to a local one.
func CellIndex(i, nStrategies, nSizes int) (pi, si, zi int) {
	zi = i % nSizes
	si = i / nSizes % nStrategies
	pi = i / nSizes / nStrategies
	return pi, si, zi
}

// CellOptions configures a single cell probe (ProbeCell). The zero value
// is usable: default params, one recorded violation, no shrinking, serial.
type CellOptions struct {
	// Params builds the cell construction parameters at (n, t); nil means
	// catalog.DefaultParams.
	Params func(n, t int) catalog.Params
	// MaxViolations caps the violations recorded (<= 0 = 1).
	MaxViolations int
	// Shrink mirrors the Matrix field.
	Shrink bool
	// Parallelism is the campaign parallelism inside the cell. Matrix.Run
	// passes 1 (cells are its parallel unit); distributed workers probing
	// one cell at a time may fan the cell's seeds out instead.
	Parallelism int
	// Ctx carries cancellation and telemetry; nil means background.
	Ctx context.Context
}

// ProbeCell runs one (protocol, strategy, size) campaign — or skips it
// when the resilience predicate (or the builder itself) refuses the size.
// It is the single-cell unit of work shared by Run and the distributed
// worker; the cell depends only on its inputs, never on scheduling.
func ProbeCell(spec catalog.Spec, strat adversary.Named, size Size, seeds adversary.SeedRange, o CellOptions) (Cell, error) {
	mo := matrixObsFrom(o.Ctx)
	cell := Cell{Protocol: spec.ID, Strategy: strat.ID, N: size.N, T: size.T}
	mo.cells.Inc()
	if !spec.SupportedAt(size.N, size.T) {
		cell.Skipped = true
		cell.Reason = fmt.Sprintf("requires %s", spec.Condition)
		return cell, nil
	}
	params := o.Params
	if params == nil {
		params = catalog.DefaultParams
	}
	c, err := CampaignFor(spec, params(size.N, size.T), strat.Strategy, seeds)
	if err != nil {
		// Only a resilience refusal is a legitimate skip. Anything else —
		// a misconfigured Params hook (ErrBadParams), a derivation
		// declining a size its Supports predicate claimed — is a harness
		// failure: silently skipping it would report a clean grid over
		// cells that never ran.
		if errors.Is(err, catalog.ErrUnsupported) {
			cell.Skipped = true
			cell.Reason = err.Error()
			return cell, nil
		}
		return cell, fmt.Errorf("matrix cell %s × %s n=%d t=%d: %w", spec.ID, strat.ID, size.N, size.T, err)
	}
	c.Shrink = o.Shrink
	c.MaxViolations = o.MaxViolations
	if c.MaxViolations <= 0 {
		c.MaxViolations = 1
	}
	c.Parallelism = o.Parallelism
	c.Ctx = o.Ctx
	rep, err := c.Run()
	if err != nil {
		return cell, fmt.Errorf("matrix cell %s × %s n=%d t=%d: %w", spec.ID, strat.ID, size.N, size.T, err)
	}
	cell.Probes = rep.Probes
	cell.ViolationCount = rep.ViolationCount
	cell.FirstViolationProbe = rep.FirstViolationProbe
	cell.Violations = rep.Violations
	cell.Messages = rep.Messages
	cell.Rounds = rep.RoundsHist
	if mo.sink != nil {
		mo.sink.Emit("matrix-cell",
			"protocol", cell.Protocol, "strategy", cell.Strategy,
			"n", cell.N, "t", cell.T,
			"probes", cell.Probes, "violations", cell.ViolationCount)
	}
	return cell, nil
}

// AssembleGrid folds a complete cell slice (protocol-major, size fastest
// — the CellIndex order) into the deterministic grid report. Run and the
// distributed coordinator share it, so a grid's bytes depend only on its
// cells, never on where they were probed.
func AssembleGrid(protocols, strategies []string, sizes []Size, seeds adversary.SeedRange, cells []Cell) *Grid {
	g := &Grid{
		StreamVersion: adversary.StreamVersion,
		Protocols:     protocols,
		Strategies:    strategies,
		Sizes:         sizes,
		Seeds:         seeds,
		Cells:         cells,
	}
	for i := range cells {
		c := &cells[i]
		switch {
		case c.Skipped:
			g.SkippedCells++
		case c.Broken():
			g.ViolatingCells++
		}
		g.Probes += c.Probes
	}
	return g
}
