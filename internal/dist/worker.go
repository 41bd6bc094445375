package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog/matrix"
	"expensive/internal/experiments/runner"
	"expensive/internal/obs"
	"expensive/internal/proc"
	"expensive/internal/transport/chaosnet"
)

// Worker is one probe-executing process: it dials a coordinator, reports
// in, and loops — receive a unit, run it on the existing engines, ship
// the result back — until the coordinator says done. Workers hold no
// campaign state; killing one costs at most its in-flight unit, which
// the coordinator reassigns.
type Worker struct {
	// Addr is the coordinator's listen address (required).
	Addr string
	// Name identifies the worker in coordinator logs and telemetry;
	// default "worker-<pid>".
	Name string
	// Parallelism is the probe parallelism inside each unit; <= 0 means
	// NumCPU. It never changes result bytes — units are
	// scheduling-independent.
	Parallelism int
	// DialAttempts and DialBackoff configure the connect retry (defaults
	// 10 attempts, 100ms initial backoff) — workers routinely start
	// before their coordinator finishes binding.
	DialAttempts int
	DialBackoff  time.Duration
	// Reconnect is how many times a dropped coordinator connection is
	// redialed with a fresh session after the initial one (the job is
	// re-shipped at the new handshake; lost in-flight units are the
	// coordinator's to reassign). Zero keeps the historical
	// fail-on-disconnect behavior. Protocol rejections never retry.
	Reconnect int
	// Chaos optionally injects deterministic faults into this worker's
	// coordinator link — the soak harness's wire-level churn. Control
	// messages (hello, job, done) are immune; units, results, heartbeats
	// and events are fair game. Nil means a clean link. Run refuses a plan
	// the link cannot apply (RefuseChaos).
	Chaos *chaosnet.Plan
	// ChaosNode is this worker's identity in the chaos plan's link space
	// (the coordinator is node 63); only meaningful with Chaos set.
	ChaosNode int
	// Ctx cancels the worker; nil means background.
	Ctx context.Context
}

// errFatal marks worker errors a reconnect cannot cure: protocol
// rejections, malformed jobs, executor construction failures.
var errFatal = errors.New("dist: worker error is not retryable")

// Run executes worker sessions until the coordinator completes the
// campaign (nil), a non-retryable error occurs, or the reconnect budget
// is spent. Each session dials fresh, handshakes, and works the unit
// loop; a dropped connection burns one reconnect and starts over.
func (w *Worker) Run() error {
	if err := RefuseChaos(w.Chaos); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	name := w.Name
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = w.session(name)
		if err == nil || errors.Is(err, errFatal) || attempt >= w.Reconnect {
			return err
		}
		if ctx := w.Ctx; ctx != nil {
			select {
			case <-ctx.Done():
				return err
			default:
			}
		}
	}
}

// session runs one connect-handshake-work cycle.
func (w *Worker) session(name string) error {
	attempts := w.DialAttempts
	if attempts <= 0 {
		attempts = 10
	}
	backoff := w.DialBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	ctx := w.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	raw, err := dial(ctx, w.Addr, attempts, backoff)
	if err != nil {
		return err
	}
	var conn wireConn = raw
	if w.Chaos != nil {
		conn = newChaosConn(raw, w.Chaos, proc.ID(w.ChaosNode))
	}
	defer conn.Close()
	if err := conn.Send(&Message{Kind: MsgHello, Hello: &Hello{Version: ProtocolVersion, Name: name}}); err != nil {
		return err
	}
	m, err := conn.Recv(30 * time.Second)
	if err != nil {
		return fmt.Errorf("dist: %s: waiting for job: %w", name, err)
	}
	if m.Kind == MsgError {
		return fmt.Errorf("%w: %s: coordinator rejected: %s", errFatal, name, m.Error)
	}
	if m.Kind != MsgJob || m.Job == nil {
		return fmt.Errorf("%w: %s: expected a job, got %s", errFatal, name, m.Kind)
	}
	job := m.Job
	job.normalize()

	if job.WantEvents {
		// Forward engine telemetry to the coordinator: a local recorder
		// whose sink writes each JSONL event line as one wire message.
		rec := obs.New()
		rec.SetSink(obs.NewSink(&eventForwarder{conn: conn}))
		ctx = obs.Into(ctx, rec)
	}

	ex, err := newExecutor(job, ctx, w.Parallelism)
	if err != nil {
		_ = conn.Send(&Message{Kind: MsgError, Error: err.Error()})
		return fmt.Errorf("%w: %s: %v", errFatal, name, err)
	}

	// Heartbeats keep the coordinator's liveness tracking fed while this
	// goroutine crunches a unit.
	stopHB := make(chan struct{})
	defer close(stopHB)
	if job.HeartbeatMS > 0 {
		go func() {
			t := time.NewTicker(time.Duration(job.HeartbeatMS) * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := conn.Send(&Message{Kind: MsgHeartbeat}); err != nil {
						return
					}
				case <-stopHB:
					return
				}
			}
		}()
	}

	for {
		m, err := conn.Recv(0)
		if err != nil {
			return fmt.Errorf("dist: %s: %w", name, err)
		}
		switch m.Kind {
		case MsgDone:
			return nil
		case MsgUnit:
			res, err := ex.run(m.Unit)
			if err != nil {
				// A failed unit is the unit's problem, not the worker's:
				// report it and stay in the loop. The coordinator charges
				// the unit's retry budget and quarantines repeat offenders.
				if serr := conn.Send(&Message{Kind: MsgUnitFailed, Failed: &UnitFailed{Unit: m.Unit.ID, Error: err.Error()}}); serr != nil {
					return fmt.Errorf("dist: %s: %w", name, serr)
				}
				continue
			}
			if err := conn.Send(&Message{Kind: MsgResult, Result: res}); err != nil {
				return fmt.Errorf("dist: %s: %w", name, err)
			}
		default:
			return fmt.Errorf("%w: %s: unexpected %s message", errFatal, name, m.Kind)
		}
	}
}

// eventForwarder adapts the obs JSONL sink to the wire: every Write is
// one complete event line (json.Encoder writes each value in a single
// call), shipped as an event message. Forwarding failures are swallowed
// — telemetry must never fail the work.
type eventForwarder struct {
	conn wireConn
}

func (f *eventForwarder) Write(p []byte) (int, error) {
	line := make([]byte, len(p))
	copy(line, p)
	for len(line) > 0 && line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
	}
	if len(line) > 0 {
		_ = f.conn.Send(&Message{Kind: MsgEvent, Event: line})
	}
	return len(p), nil
}

// executor builds a job's probe engine once, through the same Job
// constructors the coordinator's merge side uses, so both ends agree on
// every derived constant (round bounds, horizons, validity properties),
// and runs the job's units on it.
type executor struct {
	job         *Job
	ctx         context.Context
	parallelism int

	campaign *adversary.Campaign // hunt template (Seeds overridden per unit)
	prober   *fuzz.Prober        // fuzz probe executor
	matrix   *matrix.Matrix      // matrix headers, resolved
}

func newExecutor(job *Job, ctx context.Context, parallelism int) (*executor, error) {
	e, err := job.build()
	if err != nil {
		return nil, err
	}
	ex := &executor{job: job, ctx: ctx, parallelism: parallelism, campaign: e.campaign, matrix: e.matrix}
	if c := ex.campaign; c != nil {
		// The coordinator shrinks the merged report once; a worker that
		// shrank its sub-report would do it per unit, on violations the
		// merge may cut.
		c.Shrink = false
		c.Ctx = ctx
	}
	if f := e.fuzzer; f != nil {
		f.Ctx = ctx
		ex.prober = f.Prober() // probes only: the session, and its shrinking, is the coordinator's
	}
	return ex, nil
}

// run executes one unit.
func (ex *executor) run(u *Unit) (*Result, error) {
	if u == nil {
		return nil, fmt.Errorf("dist: nil unit")
	}
	switch {
	case u.Seeds != nil && ex.campaign != nil:
		return ex.runHunt(u)
	case u.Batch != nil && ex.prober != nil:
		return ex.runFuzz(u)
	case u.Cell != nil && ex.matrix != nil:
		return ex.runCell(u)
	}
	return nil, fmt.Errorf("dist: unit %d does not match job kind %q", u.ID, ex.job.Kind)
}

func (ex *executor) runHunt(u *Unit) (*Result, error) {
	c := *ex.campaign
	c.Seeds = *u.Seeds
	c.Parallelism = ex.parallelism
	rep, err := c.Run()
	if err != nil {
		return nil, err
	}
	return &Result{Unit: u.ID, Probes: rep.Probes, Hunt: rep}, nil
}

func (ex *executor) runFuzz(u *Unit) (*Result, error) {
	b := u.Batch
	// The bounds arrive off the wire: a bad one must fail the unit, not
	// panic a pool goroutine.
	limit := len(b.Candidates)
	if b.Seed {
		limit = ex.prober.SeedCount() - b.Start
	}
	if b.Start < 0 || b.Count < 0 || b.Count > limit {
		return nil, fmt.Errorf("dist: unit %d batch out of range", u.ID)
	}
	outs, err := runner.Map(ex.ctx, runner.Workers(ex.parallelism), b.Count, func(i int) (fuzz.Outcome, error) {
		if b.Seed {
			return ex.prober.Seed(b.Start + i)
		}
		return ex.prober.Candidate(&b.Candidates[i])
	})
	if err != nil {
		return nil, err
	}
	if !b.Seed {
		// The coordinator reattaches its own candidates — shipping them
		// back would only echo what it already derived.
		for i := range outs {
			outs[i].Cand = nil
		}
	}
	return &Result{Unit: u.ID, Probes: b.Count, Fuzz: outs}, nil
}

func (ex *executor) runCell(u *Unit) (*Result, error) {
	m, ref := ex.matrix, u.Cell
	// The indices arrive off the wire: bound them on both sides.
	if ref.Protocol < 0 || ref.Protocol >= len(m.Protocols) ||
		ref.Strategy < 0 || ref.Strategy >= len(m.Strategies) ||
		ref.Size < 0 || ref.Size >= len(m.Sizes) {
		return nil, fmt.Errorf("dist: unit %d cell reference out of range", u.ID)
	}
	cell, err := matrix.ProbeCell(m.Protocols[ref.Protocol], m.Strategies[ref.Strategy], m.Sizes[ref.Size], m.Seeds, matrix.CellOptions{
		MaxViolations: m.MaxViolations,
		Shrink:        m.Shrink,
		Parallelism:   ex.parallelism,
		Ctx:           ex.ctx,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Unit: u.ID, Probes: cell.Probes, Cell: &cell}, nil
}
