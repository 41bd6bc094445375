package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog/matrix"
	"expensive/internal/experiments/runner"
	"expensive/internal/obs"
)

// ErrStopped is returned by Coordinator.Run when the stop-after-units
// test hook fires: the campaign is checkpointed but unfinished.
var ErrStopped = errors.New("dist: coordinator stopped before completion")

// ErrDrained is returned by Coordinator.Run after Drain: no new units
// were assigned, in-flight units folded, and the checkpoint was saved. A
// later run with the same CheckpointPath resumes where the drain left
// off.
var ErrDrained = errors.New("dist: coordinator drained: progress checkpointed")

// Report is the coordinator's outcome. The JSON encoding is exactly the
// inner engine report — byte-identical to the single-process run of the
// same campaign — while the dist-level statistics ride alongside,
// excluded from the encoding like every other timing block in the repo.
type Report struct {
	Kind string                    `json:"kind"`
	Hunt *adversary.CampaignReport `json:"hunt,omitempty"`
	Fuzz *fuzz.Report              `json:"fuzz,omitempty"`
	Grid *matrix.Grid              `json:"grid,omitempty"`

	// Corpus is the merged fuzz corpus (fuzz kind only).
	Corpus *fuzz.Corpus `json:"-"`
	// Units counts completed work units; Reassigned the units re-issued
	// after a worker death; Workers the distinct workers that had joined
	// by the time the last unit folded — a fact of the schedule.
	Units      int `json:"-"`
	Reassigned int `json:"-"`
	Workers    int `json:"-"`
	// Resumed reports whether a checkpoint was loaded.
	Resumed bool          `json:"-"`
	Wall    time.Duration `json:"-"`

	// Quarantined lists unit IDs abandoned after exhausting the retry
	// budget, in quarantine order. It IS part of the JSON encoding — a
	// degraded report must say so — but is omitted when empty, which keeps
	// clean runs byte-identical to the single-process baseline.
	Quarantined []int `json:"quarantined,omitempty"`
}

// Coordinator owns one distributed campaign: it listens for workers,
// cuts the job into deterministic units, schedules them over the live
// worker population, folds results in unit order, and checkpoints
// progress. The report is byte-identical to a single-process run at any
// worker count, join order, or death schedule.
type Coordinator struct {
	// Job is the campaign to distribute (required).
	Job *Job
	// Addr is the TCP listen address; default "127.0.0.1:0".
	Addr string
	// CheckpointPath enables checkpoint/resume: progress is persisted
	// there, and an existing checkpoint for the same job is loaded and
	// continued.
	CheckpointPath string
	// CheckpointEvery is the number of completed hunt/matrix units
	// between checkpoint saves (default 1: every unit). Fuzz campaigns
	// checkpoint after every folded generation regardless.
	CheckpointEvery int
	// HeartbeatTimeout declares a silent worker dead (default 10s);
	// workers are told to heartbeat at a third of it.
	HeartbeatTimeout time.Duration
	// UnitDeadline bounds one unit's execution: an assignment held past
	// it is reassigned to an idle worker (the straggler stays alive — its
	// late result is deduped). Zero disables straggler detection;
	// heartbeats remain the liveness channel either way.
	UnitDeadline time.Duration
	// RetryBudget caps how many times a lost unit (worker death, unit
	// failure, or blown deadline) is requeued before being quarantined
	// and reported instead of retried forever. 0 means the default of 3;
	// negative means unlimited retries.
	RetryBudget int
	// LocalWorkers forks that many in-process workers connected over
	// loopback TCP — `baexp coord -inproc N`. Zero means only
	// external workers probe.
	LocalWorkers int
	// WorkerParallelism is passed to local workers (<= 0 means NumCPU).
	WorkerParallelism int
	// Corpus optionally seeds a fuzz campaign with a resumed corpus,
	// exactly like fuzz.Fuzzer.Corpus.
	Corpus *fuzz.Corpus
	// Ctx cancels the run; it also carries the obs recorder that
	// receives coordinator telemetry and forwarded worker events.
	Ctx context.Context

	// stopAfterUnits is a test hook: checkpoint and return ErrStopped
	// after this many units (hunt/matrix) or generations (fuzz) complete
	// in this run. Zero disables it.
	stopAfterUnits int

	ln    net.Listener
	sched *scheduler
}

// Start binds the listener and begins accepting workers. Run calls it
// implicitly; calling it first lets the caller learn ListenAddr before
// any worker exists.
func (c *Coordinator) Start() error {
	if c.ln != nil {
		return nil
	}
	if c.Job == nil {
		return fmt.Errorf("dist: coordinator needs a job")
	}
	c.Job.normalize()
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	c.Job.HeartbeatMS = int(c.HeartbeatTimeout.Milliseconds() / 3)
	if rec := obs.From(c.Ctx); rec != nil && rec.Sink() != nil {
		c.Job.WantEvents = true
	}
	if _, err := c.Job.build(); err != nil {
		return err
	}
	addr := c.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	c.ln = ln
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	budget := c.RetryBudget
	switch {
	case budget == 0:
		budget = 3
	case budget < 0:
		budget = 0 // scheduler convention: 0 = unlimited
	}
	c.sched = newScheduler(ctx, c.Job, c.HeartbeatTimeout, c.UnitDeadline, budget)
	go c.sched.acceptLoop(ln)
	return nil
}

// Drain asks a running campaign to stop gracefully: no new units are
// assigned, in-flight units finish and fold, the checkpoint is saved,
// and Run returns ErrDrained. Safe to call from any goroutine (signal
// handlers included); before Start it is a no-op.
func (c *Coordinator) Drain() {
	if c.sched != nil {
		c.sched.requestDrain()
	}
}

// ListenAddr returns the bound address (after Start).
func (c *Coordinator) ListenAddr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Run executes the campaign to completion and returns the merged report.
func (c *Coordinator) Run() (*Report, error) {
	if err := c.Start(); err != nil {
		return nil, err
	}
	// Local workers are the coordinator's own: whatever way Run returns,
	// the campaign is shut down, their context cancelled — one still
	// retrying its dial stops there — and Run waits for them.
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	var locals sync.WaitGroup
	defer func() {
		c.shutdown()
		cancel()
		locals.Wait()
	}()
	sw := runner.StartWall()

	var cp *Checkpoint
	if c.CheckpointPath != "" {
		loaded, err := loadCheckpoint(c.CheckpointPath, c.Job)
		if err != nil {
			return nil, err
		}
		cp = loaded
	}
	report := &Report{Kind: c.Job.Kind, Resumed: cp != nil}
	if cp == nil {
		cp = &Checkpoint{Version: checkpointVersion, StreamVersion: adversary.StreamVersion, Job: c.Job, Units: make(map[int]*Result)}
	}
	if cp.Units == nil {
		cp.Units = make(map[int]*Result)
	}

	// The -inproc N mode: in-process workers over loopback TCP,
	// exercising the identical wire path as external processes.
	for i := 0; i < c.LocalWorkers; i++ {
		w := &Worker{
			Addr:        c.ListenAddr(),
			Name:        fmt.Sprintf("local-%d", i),
			Parallelism: c.WorkerParallelism,
			Ctx:         ctx,
		}
		locals.Add(1)
		go func() {
			defer locals.Done()
			if err := w.Run(); err != nil {
				c.sched.log("local-worker-error", "error", err.Error())
			}
		}()
	}

	var err error
	switch {
	case c.Job.Hunt != nil:
		err = c.runHunt(cp, report)
	case c.Job.Fuzz != nil:
		err = c.runFuzz(cp, report)
	case c.Job.Matrix != nil:
		err = c.runMatrix(cp, report)
	}
	if errors.Is(err, ErrDrained) {
		// The drain path's contract is the checkpoint, not the report:
		// persist whatever folded before returning.
		if serr := c.save(cp); serr != nil {
			return nil, serr
		}
	}
	if err != nil {
		return nil, err
	}
	report.Reassigned = c.sched.reassigned
	report.Workers = len(c.sched.workers)
	report.Quarantined = append([]int(nil), c.sched.quarantined...)
	report.Wall = sw.Wall()
	return report, nil
}

// save persists the checkpoint when checkpointing is enabled.
func (c *Coordinator) save(cp *Checkpoint) error {
	if c.CheckpointPath == "" {
		return nil
	}
	return saveCheckpoint(c.CheckpointPath, cp)
}

// collect runs a campaign whose units are all known up front (hunt,
// matrix): units the checkpoint already holds are kept, once they are
// found to be the units they claim, the rest are scheduled, and every
// completed one is checkpointed. It returns the results by unit ID; a
// quarantined unit's slot stays nil.
func (c *Coordinator) collect(units []*Unit, cp *Checkpoint, report *Report) ([]*Result, error) {
	results := make([]*Result, len(units))
	var pending []*Unit
	for _, u := range units {
		r := cp.Units[u.ID]
		if r == nil {
			pending = append(pending, u)
			continue
		}
		if r.Unit != u.ID {
			return nil, fmt.Errorf("dist: checkpoint: unit %d holds another unit's result", u.ID)
		}
		if err := u.fits(r); err != nil {
			return nil, fmt.Errorf("dist: checkpoint: %w", err)
		}
		results[u.ID] = r
	}
	every := c.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	completed := 0
	slots, err := c.sched.execute(pending, func(r *Result) error {
		cp.Units[r.Unit] = r
		completed++
		report.Units++
		if completed%every == 0 {
			if err := c.save(cp); err != nil {
				return err
			}
		}
		if c.stopAfterUnits > 0 && completed >= c.stopAfterUnits && completed < len(pending) {
			if err := c.save(cp); err != nil {
				return err
			}
			return ErrStopped
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range slots {
		results[pending[i].ID] = r
	}
	return results, c.save(cp)
}

// runHunt distributes the seed-range units and merges the sub-reports.
func (c *Coordinator) runHunt(cp *Checkpoint, report *Report) error {
	results, err := c.collect(huntUnits(c.Job.Hunt), cp, report)
	if err != nil {
		return err
	}
	camp, err := c.Job.Hunt.Campaign()
	if err != nil {
		return err
	}
	camp.Ctx = c.Ctx
	// A quarantined unit degrades the report: its probes are missing, and
	// Report.Quarantined says so.
	subs := make([]*adversary.CampaignReport, len(results))
	for i, r := range results {
		if r != nil {
			subs[i] = r.Hunt
		}
	}
	merged := camp.Merge(subs)
	if camp.Shrink {
		opts := camp.RecheckOptions()
		opts.Obs = obs.From(c.Ctx)
		if err := adversary.ShrinkAll(merged.Violations, opts); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
	}
	report.Hunt = merged
	return nil
}

// runMatrix distributes one unit per cell and assembles the grid.
func (c *Coordinator) runMatrix(cp *Checkpoint, report *Report) error {
	j := c.Job.Matrix
	results, err := c.collect(matrixUnits(j), cp, report)
	if err != nil {
		return err
	}
	cells := make([]matrix.Cell, len(results))
	for i, r := range results {
		if r == nil {
			return fmt.Errorf("dist: matrix cell unit %d quarantined after repeated failures; the grid cannot be assembled without it", i)
		}
		cells[i] = *r.Cell
	}
	report.Grid = matrix.AssembleGrid(j.Protocols, j.Strategies, j.Sizes, j.Seeds, cells)
	return nil
}

// runFuzz drives the coordinator-owned fuzz session: candidates derive
// sequentially here, probe batches ship to workers, outcomes fold back
// in slot order — the same Session a local Fuzzer.Run drives, which is
// why the report and corpus are byte-identical.
func (c *Coordinator) runFuzz(cp *Checkpoint, report *Report) error {
	j := c.Job.Fuzz
	f, err := j.Fuzzer()
	if err != nil {
		return err
	}
	f.Corpus = c.Corpus
	f.Ctx = c.Ctx

	var s *fuzz.Session
	if cp.Fuzz != nil {
		s, err = f.ResumeSession(cp.Fuzz)
	} else {
		s, err = f.NewSession()
	}
	if err != nil {
		return err
	}

	nextID := 0
	gens := 0
	for g := s.NextGeneration(); g != nil; g = s.NextGeneration() {
		units := batchUnits(g, j.Batch, &nextID)
		slots, err := c.sched.execute(units, nil)
		if err != nil {
			return err
		}
		// The batches cut the generation in order, and each result carries
		// its batch's Count outcomes (Unit.fits).
		outs := make([]fuzz.Outcome, 0, g.Count)
		for i, r := range slots {
			if r == nil {
				return fmt.Errorf("dist: fuzz unit %d quarantined after repeated failures; the generation fold cannot proceed without it", units[i].ID)
			}
			outs = append(outs, r.Fuzz...)
			report.Units++
		}
		if !g.Seed {
			// Reattach the coordinator-derived candidates the workers
			// stripped: the fold reads parent/op/plan off them.
			for i := range outs {
				outs[i].Cand = &g.Candidates[i]
			}
		}
		s.Fold(g, outs)
		gens++
		cp.Fuzz = s.State()
		if err := c.save(cp); err != nil {
			return err
		}
		if c.stopAfterUnits > 0 && gens >= c.stopAfterUnits {
			return ErrStopped
		}
	}
	rep, err := s.Finish()
	if err != nil {
		return err
	}
	report.Fuzz = rep
	report.Corpus = f.Corpus
	return nil
}

// shutdown releases the listener and tells every live worker the
// campaign is over.
func (c *Coordinator) shutdown() {
	if c.ln != nil {
		_ = c.ln.Close()
	}
	if c.sched != nil {
		c.sched.shutdown()
	}
}
