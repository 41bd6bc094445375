// Package dist is the distributed campaign layer: a coordinator/worker
// subsystem that shards hunt, fuzz, and matrix campaigns across OS
// processes (and machines) while preserving the repo's signature
// invariant — reports and corpora byte-identical to a single-process run
// at any worker count.
//
// The architecture follows the determinism discipline of every other
// engine in the library, lifted one level up. Work is cut into units
// whose number and content depend only on the job, never on the worker
// population: hunt seed ranges split into a fixed count of contiguous
// sub-ranges (SeedRange.Split), matrix grids into one unit per cell in
// CellIndex order, and fuzz budgets into generation batches derived
// sequentially by the coordinator-owned fuzz.Session. Workers execute
// units with the existing Campaign/Prober/ProbeCell engines — whose
// outputs are themselves scheduling-independent — and the coordinator
// folds results back in unit order: campaign sub-reports merge with
// offset-shifted first-violation indices and exact-value histogram
// merges, fuzz outcomes fold through the same Session.Fold a local run
// uses, and matrix cells assemble through matrix.AssembleGrid. Where a
// probe lands therefore never changes a byte of what comes back.
//
// Transport is a length-prefixed JSON wire protocol over TCP (wire.go),
// with worker liveness tracked by heartbeats: a worker that stalls past
// the heartbeat timeout is declared dead and its in-flight unit is
// reassigned. The coordinator periodically persists completed-unit state
// (plus the merged fuzz session) to a JSON checkpoint, and a restarted
// coordinator re-issues only the incomplete units — a kill-and-resume
// run finishes with the same bytes as an uninterrupted one.
//
// This package legitimately deals in wall-clock time (heartbeats, dial
// backoff, read deadlines), so it is sanctioned for the wallclock
// analyzer; none of that time ever reaches a report.
package dist

import (
	"fmt"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog"
	"expensive/internal/catalog/matrix"
)

// Job is the one campaign a coordinator distributes: exactly one of
// Hunt, Fuzz, Matrix is set, matching Kind. A job carries everything a
// worker needs to rebuild its probe engines from the registries — specs
// and strategies travel as catalog/library IDs, never as code.
type Job struct {
	// Kind selects the campaign: "hunt", "fuzz" or "matrix".
	Kind string `json:"kind"`
	// HeartbeatMS is the worker heartbeat interval the coordinator
	// derives from its timeout and ships with the job.
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`
	// WantEvents asks workers to instrument their engines and forward
	// telemetry events over the wire (set when the coordinator itself has
	// a trace sink). Purely observational — reports are byte-identical
	// either way.
	WantEvents bool `json:"want_events,omitempty"`

	Hunt   *HuntJob   `json:"hunt,omitempty"`
	Fuzz   *FuzzJob   `json:"fuzz,omitempty"`
	Matrix *MatrixJob `json:"matrix,omitempty"`
}

// HuntJob distributes one adversary.Campaign: the seed range splits into
// Units contiguous sub-ranges, each swept by a worker campaign at the
// lean tier with shrinking deferred to the coordinator's merge.
type HuntJob struct {
	// Protocol and Strategy are registry IDs (catalog.Get,
	// adversary.FromLibrary); Bias parameterizes the random-omission
	// strategy family.
	Protocol string `json:"protocol"`
	Strategy string `json:"strategy"`
	Bias     int    `json:"bias,omitempty"`
	N        int    `json:"n"`
	T        int    `json:"t"`
	// Seeds is the full half-open seed range of the hunt.
	Seeds adversary.SeedRange `json:"seeds"`
	// Units is the work-unit count the range splits into (default 16).
	// It must not depend on the worker population — the same job always
	// cuts the same units, which is what keeps reassignment and resume
	// deterministic.
	Units int `json:"units,omitempty"`
	// Shrink and MaxViolations mirror the campaign fields. Shrinking runs
	// once, coordinator-side, on the merged report.
	Shrink        bool `json:"shrink,omitempty"`
	MaxViolations int  `json:"max_violations,omitempty"`
}

// FuzzJob distributes one fuzz.Fuzzer. The coordinator owns the corpus
// and the session — candidates derive sequentially exactly as in a local
// run — and ships probe batches of size Batch out to workers.
type FuzzJob struct {
	// Protocol is the catalog ID; SeedStrategy the library ID of the
	// generation-0 strategy; Bias its omission parameter.
	Protocol     string `json:"protocol"`
	SeedStrategy string `json:"seed_strategy"`
	Bias         int    `json:"bias,omitempty"`
	N            int    `json:"n"`
	T            int    `json:"t"`
	// Budget, SeedProbes, GenSize, FuzzSeed and Horizon mirror the
	// fuzzer fields (zero = the fuzzer's own defaults).
	Budget     int   `json:"budget"`
	SeedProbes int   `json:"seed_probes,omitempty"`
	GenSize    int   `json:"gen_size,omitempty"`
	FuzzSeed   int64 `json:"fuzz_seed,omitempty"`
	Horizon    int   `json:"horizon,omitempty"`
	// Batch is the probes-per-unit shipped to workers (default 16).
	Batch int `json:"batch,omitempty"`
	// Shrink, MaxViolations and StopOnViolation mirror the fuzzer
	// fields; shrinking runs coordinator-side in Session.Finish.
	Shrink          bool `json:"shrink,omitempty"`
	MaxViolations   int  `json:"max_violations,omitempty"`
	StopOnViolation bool `json:"stop_on_violation,omitempty"`
}

// MatrixJob distributes one catalog/matrix sweep: one unit per cell in
// matrix.CellIndex order. Cells run complete on workers (shrinking
// included — cells are independent), and the coordinator assembles the
// grid. Cell parameters always come from catalog.DefaultParams, the
// reproducible default.
type MatrixJob struct {
	// Protocols and Strategies are registry/library ID lists; Sizes the
	// (n, t) grid points. All are required and ordered — they define the
	// cell enumeration.
	Protocols  []string      `json:"protocols"`
	Strategies []string      `json:"strategies"`
	Sizes      []matrix.Size `json:"sizes"`
	Bias       int           `json:"bias,omitempty"`
	// Seeds is the per-cell seed range.
	Seeds adversary.SeedRange `json:"seeds"`
	// MaxViolations and Shrink mirror the matrix fields.
	MaxViolations int  `json:"max_violations,omitempty"`
	Shrink        bool `json:"shrink,omitempty"`
}

// normalize fills job defaults in place (idempotent).
func (j *Job) normalize() {
	if j.Hunt != nil && j.Hunt.Units == 0 {
		j.Hunt.Units = 16
	}
	if j.Fuzz != nil && j.Fuzz.Batch == 0 {
		j.Fuzz.Batch = 16
	}
}

// nonNegative refuses a negative job size, sizes[i] being named names[i].
// Zero is how a job says "the default", and the engines read every value
// <= 0 that way — so a negative one, from a flag or off the wire, would
// quietly run the default.
func nonNegative(kind string, names []string, sizes ...int) error {
	for i, v := range sizes {
		if v < 0 {
			return fmt.Errorf("dist: %s job: %s must be >= 0, got %d", kind, names[i], v)
		}
	}
	return nil
}

// engines is what a valid job builds: exactly one field is set.
type engines struct {
	campaign *adversary.Campaign
	fuzzer   *fuzz.Fuzzer
	matrix   *matrix.Matrix
}

// build checks the job shape and builds the kind's engine through the Job
// constructors. It is where every route starts — Coordinator.Start,
// Serial, the worker executor — so a job no engine accepts (an unknown
// ID, a size outside the protocol's resilience condition) is refused
// before a listener binds or a worker is handed it.
func (j *Job) build() (engines, error) {
	var e engines
	if j == nil {
		return e, fmt.Errorf("dist: nil job")
	}
	set := 0
	for _, ok := range []bool{j.Hunt != nil, j.Fuzz != nil, j.Matrix != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return e, fmt.Errorf("dist: job needs exactly one of hunt/fuzz/matrix, has %d", set)
	}
	kind := "matrix"
	var err error
	switch {
	case j.Hunt != nil:
		kind = "hunt"
		e.campaign, err = j.Hunt.Campaign()
	case j.Fuzz != nil:
		kind = "fuzz"
		e.fuzzer, err = j.Fuzz.Fuzzer()
	default:
		e.matrix, err = j.Matrix.Matrix()
	}
	if j.Kind != kind {
		return e, fmt.Errorf("dist: %s job with kind %q", kind, j.Kind)
	}
	return e, err
}

// strategyFor is the one strategy-ID resolver (catalog.Get is its
// protocol twin): like Get's, its error lists the IDs that exist.
func strategyFor(id string, bias int) (adversary.Named, error) {
	s, ok := adversary.FromLibrary(id, bias)
	if !ok {
		return adversary.Named{}, fmt.Errorf("dist: unknown strategy %q (have %v)", id, adversary.LibraryIDs())
	}
	return adversary.Named{ID: id, Strategy: s}, nil
}

// Campaign builds the hunt's engine from the registries with every
// campaign field of the job applied. It is the only route from a HuntJob
// to an adversary.Campaign; callers add what is theirs rather than the
// campaign's (Ctx, Parallelism, a unit's sub-range).
func (j *HuntJob) Campaign() (*adversary.Campaign, error) {
	if err := nonNegative("hunt", []string{"units", "max violations"}, j.Units, j.MaxViolations); err != nil {
		return nil, err
	}
	if err := j.Seeds.Err(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	spec, err := catalog.Get(j.Protocol)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	strat, err := strategyFor(j.Strategy, j.Bias)
	if err != nil {
		return nil, err
	}
	c, err := matrix.CampaignFor(spec, catalog.DefaultParams(j.N, j.T), strat.Strategy, j.Seeds)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	c.Shrink = j.Shrink
	c.MaxViolations = j.MaxViolations
	return c, nil
}

// Fuzzer builds the fuzz engine from the registries with every fuzzer
// field of the job applied; the only route from a FuzzJob to a
// fuzz.Fuzzer. An empty SeedStrategy keeps the fuzzer's default seeding.
func (j *FuzzJob) Fuzzer() (*fuzz.Fuzzer, error) {
	if err := nonNegative("fuzz", []string{"seed probes", "generation size", "batch", "horizon", "max violations"},
		j.SeedProbes, j.GenSize, j.Batch, j.Horizon, j.MaxViolations); err != nil {
		return nil, err
	}
	if j.Budget <= 0 {
		return nil, fmt.Errorf("dist: fuzz budget must be positive, got %d", j.Budget)
	}
	spec, err := catalog.Get(j.Protocol)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	var seed adversary.Named
	if j.SeedStrategy != "" {
		if seed, err = strategyFor(j.SeedStrategy, j.Bias); err != nil {
			return nil, err
		}
	}
	f, err := matrix.FuzzerFor(spec, catalog.DefaultParams(j.N, j.T), seed.Strategy, j.Budget)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	f.SeedProbes = j.SeedProbes
	f.GenSize = j.GenSize
	f.FuzzSeed = j.FuzzSeed
	f.Horizon = j.Horizon
	f.Shrink = j.Shrink
	f.MaxViolations = j.MaxViolations
	f.StopOnViolation = j.StopOnViolation
	return f, nil
}

// Matrix builds the sweep from the registries: every ID resolved once,
// in header order, and the grid shape checked. The only route from a
// MatrixJob to a matrix.Matrix; the worker executor probes single cells
// out of the same resolved headers.
func (j *MatrixJob) Matrix() (*matrix.Matrix, error) {
	if err := nonNegative("matrix", []string{"max violations"}, j.MaxViolations); err != nil {
		return nil, err
	}
	if len(j.Protocols) == 0 || len(j.Strategies) == 0 || len(j.Sizes) == 0 {
		return nil, fmt.Errorf("dist: matrix job needs protocols, strategies and sizes")
	}
	m := &matrix.Matrix{
		Protocols:     make([]catalog.Spec, len(j.Protocols)),
		Strategies:    make([]adversary.Named, len(j.Strategies)),
		Sizes:         j.Sizes,
		Seeds:         j.Seeds,
		MaxViolations: j.MaxViolations,
		Shrink:        j.Shrink,
	}
	var err error
	for i, id := range j.Protocols {
		if m.Protocols[i], err = catalog.Get(id); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
	}
	for i, id := range j.Strategies {
		if m.Strategies[i], err = strategyFor(id, j.Bias); err != nil {
			return nil, err
		}
	}
	if err := j.Seeds.Err(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return m, nil
}
