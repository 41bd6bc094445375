package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"expensive/internal/obs"
	"expensive/internal/transport"
)

// schedEvent is one occurrence posted by the accept/reader goroutines
// into the scheduler's single-threaded core: a worker joined, returned a
// result, reported a unit-level failure, or died.
type schedEvent struct {
	w      *remoteWorker
	join   bool
	result *Result
	failed *UnitFailed
	fail   error
}

// remoteWorker is the coordinator's view of one connected worker. All
// fields past the connection are owned by the scheduler goroutine (the
// one running execute) — readers only post events.
type remoteWorker struct {
	id   int
	name string
	conn *Conn

	unit       *Unit     // in-flight unit, nil when idle
	assignedAt time.Time // when the in-flight unit was handed out
	dead       bool
}

// release takes unit id back from the worker and returns it, or nil when
// the worker is dead or holds another unit (a stale message about a unit
// it has already lost).
func (w *remoteWorker) release(id int) *Unit {
	if w.dead || w.unit == nil || w.unit.ID != id {
		return nil
	}
	u := w.unit
	w.unit = nil
	return u
}

// scheduler multiplexes work units over the live worker population. Its
// core is deliberately single-threaded: execute owns all worker state
// and consumes a single event channel, so assignment, reassignment and
// result folding never race — determinism comes from folding in unit
// order, not from scheduling order.
//
// Graceful degradation is layered on the same core. A unit whose worker
// dies, reports a failure, or exceeds the unit deadline is requeued at
// the front; each requeue spends from the unit's retry budget, and a unit
// that exhausts it is quarantined — marked done without a result and
// reported, so one poisoned unit can never hang the campaign or starve
// the healthy ones. Quarantine is final: a late result for a quarantined
// unit is dropped like any other duplicate, which keeps the fold
// deterministic (whether the straggler's bytes arrive is a race; whether
// they are used must not be).
type scheduler struct {
	ctx          context.Context
	job          *Job
	hbTimeout    time.Duration
	unitDeadline time.Duration
	retryBudget  int
	sink         *obs.Sink
	quarantinedC *obs.Counter
	straggledC   *obs.Counter

	events    chan schedEvent
	closed    chan struct{}
	drainCh   chan struct{}
	once      sync.Once
	drainOnce sync.Once
	draining  bool

	// admit orders a handshake against shutdown. A worker is in admitted
	// from the moment it holds the job, whether or not the event loop ever
	// consumes its join: shutdown releases every one of them, and a
	// handshake that finishes after shutdown releases its own. Without it a
	// worker joining as the campaign ends is never told done, and waits on
	// an open connection forever.
	admit    sync.Mutex
	down     bool
	admitted []*remoteWorker

	// workers is every worker that ever joined, in join order; dead ones
	// stay (slots keep history, and slices keep map iteration out of the
	// fold path).
	workers    []*remoteWorker
	nextID     int
	reassigned int

	// attempts counts requeues per unit ID; quarantined lists the units
	// abandoned after exhausting the retry budget, in quarantine order;
	// lastWorker remembers each unit's most recent assignee so a requeued
	// unit prefers a different worker — without it, a live-but-slow
	// straggler at the head of the worker list would win every
	// reassignment of the unit it just lost and ping-pong it forever.
	attempts    map[int]int
	quarantined []int
	lastWorker  map[int]int
}

func newScheduler(ctx context.Context, job *Job, hbTimeout, unitDeadline time.Duration, retryBudget int) *scheduler {
	rec := obs.From(ctx)
	return &scheduler{
		ctx:          ctx,
		job:          job,
		hbTimeout:    hbTimeout,
		unitDeadline: unitDeadline,
		retryBudget:  retryBudget,
		sink:         rec.Sink(),
		quarantinedC: rec.Counter("dist_units_quarantined"),
		straggledC:   rec.Counter("dist_units_straggled"),
		events:       make(chan schedEvent, 256),
		closed:       make(chan struct{}),
		drainCh:      make(chan struct{}),
		attempts:     make(map[int]int),
		lastWorker:   make(map[int]int),
	}
}

// log emits a coordinator trace event when telemetry is on.
func (s *scheduler) log(name string, kv ...any) {
	if s.sink != nil {
		s.sink.Emit(name, kv...)
	}
}

// post delivers an event unless the scheduler has shut down.
func (s *scheduler) post(ev schedEvent) {
	select {
	case s.events <- ev:
	case <-s.closed:
	}
}

// requestDrain asks the scheduler to stop assigning new units, fold the
// in-flight ones, and return ErrDrained. Safe from any goroutine.
func (s *scheduler) requestDrain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// acceptLoop admits workers until the listener closes.
func (s *scheduler) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go s.handshake(NewConn(conn))
	}
}

// handshake validates a new worker, ships it the job, and starts its
// reader. Runs on its own goroutine so a stalled dialer cannot block
// admission of others.
func (s *scheduler) handshake(conn *Conn) {
	m, err := conn.recv(maxHello, s.hbTimeout)
	if err != nil || m.Kind != MsgHello || m.Hello == nil {
		_ = conn.Close()
		return
	}
	if m.Hello.Version != ProtocolVersion {
		_ = conn.Send(&Message{Kind: MsgError, Error: fmt.Sprintf("protocol version %d, want %d", m.Hello.Version, ProtocolVersion)})
		_ = conn.Close()
		return
	}
	if err := conn.Send(&Message{Kind: MsgJob, Job: s.job}); err != nil {
		_ = conn.Close()
		return
	}
	w := &remoteWorker{name: m.Hello.Name, conn: conn}
	s.admit.Lock()
	down := s.down
	if !down {
		s.admitted = append(s.admitted, w)
	}
	s.admit.Unlock()
	if down {
		_ = conn.Send(&Message{Kind: MsgDone})
		_ = conn.Close()
		return
	}
	s.post(schedEvent{w: w, join: true})
	go s.reader(w)
}

// reader drains one worker's connection. Every Recv is bounded by the
// heartbeat timeout, so a worker that goes silent — crashed, wedged, or
// partitioned — surfaces as a fail event and its unit gets reassigned.
// Failures are classified through the transport sentinels so the death
// cause in logs distinguishes a stall from a teardown.
func (s *scheduler) reader(w *remoteWorker) {
	for {
		m, err := w.conn.Recv(s.hbTimeout)
		if err != nil {
			switch {
			case errors.Is(err, transport.ErrTimeout):
				err = fmt.Errorf("dist: worker %s: heartbeat timeout: %w", w.name, err)
			case errors.Is(err, transport.ErrClosed):
				err = fmt.Errorf("dist: worker %s: connection closed: %w", w.name, err)
			default:
				err = fmt.Errorf("dist: worker %s: %w", w.name, err)
			}
			s.post(schedEvent{w: w, fail: err})
			return
		}
		switch m.Kind {
		case MsgHeartbeat:
			// Liveness only; the bounded Recv above is the detector.
		case MsgResult:
			if m.Result != nil {
				s.post(schedEvent{w: w, result: m.Result})
			}
		case MsgUnitFailed:
			if m.Failed != nil {
				s.post(schedEvent{w: w, failed: m.Failed})
			}
		case MsgEvent:
			// Forwarded worker telemetry: re-emitted under the worker's
			// name, with the original event carried verbatim.
			s.log("worker-event", "worker", w.name, "event", m.Event)
		case MsgError:
			s.post(schedEvent{w: w, fail: fmt.Errorf("dist: worker %s: %s", w.name, m.Error)})
			return
		}
	}
}

// execute distributes units over the worker population and invokes
// onResult once per completed unit, in completion order. It returns when
// every unit has a result or is quarantined, the context is cancelled,
// drain finishes, or onResult errs. Workers may join at any time; lost
// units requeue at the front of the queue through requeue, which charges
// the retry budget. Duplicate results (a slow worker racing its own
// death sentence or a straggle reassignment) are dropped — first result
// wins, and since results are deterministic, which copy wins is
// unobservable. Result IDs and payloads arrive off the wire: a result for
// a unit this call never issued (a stray ID, a late duplicate from an
// earlier call) is logged and dropped, and one whose payload does not fit
// its unit costs the unit a retry, like a reported failure.
func (s *scheduler) execute(pending []*Unit, onResult func(*Result) error) error {
	if len(pending) == 0 {
		return nil
	}
	queue := make([]*Unit, len(pending))
	copy(queue, pending)
	issued := make(map[int]*Unit, len(pending))
	for _, u := range pending {
		issued[u.ID] = u
	}
	done := make(map[int]bool, len(pending))
	outstanding := len(pending)

	// The straggler detector: with a unit deadline configured, a ticker
	// sweeps the in-flight assignments. This is the only timer on the
	// scheduling path — heartbeat timeouts live in the readers.
	var tick <-chan time.Time
	if s.unitDeadline > 0 {
		t := time.NewTicker(s.unitDeadline / 4)
		defer t.Stop()
		tick = t.C
	}
	drainCh := s.drainCh

	for outstanding > 0 {
		if s.draining && s.inFlight() == 0 {
			return ErrDrained
		}
		if !s.draining {
			// Hand queued units to idle live workers.
			for len(queue) > 0 {
				u := queue[0]
				w := s.idleFor(u)
				if w == nil {
					break
				}
				queue = queue[1:]
				w.unit = u
				w.assignedAt = time.Now()
				s.lastWorker[u.ID] = w.id
				if err := w.conn.Send(&Message{Kind: MsgUnit, Unit: u}); err != nil {
					queue, outstanding = s.drop(w, queue, outstanding, done, err)
				}
			}
		}
		select {
		case ev := <-s.events:
			switch {
			case ev.join:
				ev.w.id = s.nextID
				s.nextID++
				s.workers = append(s.workers, ev.w)
				s.log("worker-join", "worker", ev.w.name, "id", ev.w.id)
			case ev.result != nil:
				u := issued[ev.result.Unit]
				if u == nil {
					s.log("result-stray", "worker", ev.w.name, "unit", ev.result.Unit)
					continue
				}
				held := ev.w.release(u.ID) != nil
				if done[u.ID] {
					continue // duplicate, or late result for a quarantined unit
				}
				if err := u.fits(ev.result); err != nil {
					if held {
						queue, outstanding = s.requeue(u, queue, outstanding, done,
							fmt.Errorf("dist: worker %s: %w", ev.w.name, err))
					}
					continue
				}
				done[u.ID] = true
				outstanding--
				if err := onResult(ev.result); err != nil {
					return err
				}
			case ev.failed != nil:
				// Unit-level failure: the worker stays alive and idle; only
				// the unit is charged.
				u := ev.w.release(ev.failed.Unit)
				if u == nil || done[u.ID] {
					continue // stale failure for an already reassigned unit
				}
				queue, outstanding = s.requeue(u, queue, outstanding, done,
					fmt.Errorf("dist: worker %s: unit %d: %s", ev.w.name, ev.failed.Unit, ev.failed.Error))
			case ev.fail != nil:
				queue, outstanding = s.drop(ev.w, queue, outstanding, done, ev.fail)
			}
		case <-tick:
			queue, outstanding = s.stragglers(queue, outstanding, done)
		case <-drainCh:
			s.draining = true
			drainCh = nil
			s.log("drain-requested", "in_flight", s.inFlight(), "queued", len(queue))
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	return nil
}

// idleFor returns a live idle worker for a unit, preferring one that is
// not the unit's previous assignee; when the previous assignee is the
// only idle worker it is still used (a lone worker must make progress).
func (s *scheduler) idleFor(u *Unit) *remoteWorker {
	last, reassigned := s.lastWorker[u.ID]
	var fallback *remoteWorker
	for _, w := range s.workers {
		if w.dead || w.unit != nil {
			continue
		}
		if reassigned && w.id == last {
			if fallback == nil {
				fallback = w
			}
			continue
		}
		return w
	}
	return fallback
}

// inFlight counts live workers with an assigned unit.
func (s *scheduler) inFlight() int {
	n := 0
	for _, w := range s.workers {
		if !w.dead && w.unit != nil {
			n++
		}
	}
	return n
}

// stragglers reassigns units whose workers have held them past the unit
// deadline. The worker is NOT declared dead — a straggler may be slow,
// not gone, and heartbeats are the liveness channel — it just loses the
// assignment and becomes idle again; its eventual result is deduped.
func (s *scheduler) stragglers(queue []*Unit, outstanding int, done map[int]bool) ([]*Unit, int) {
	now := time.Now()
	for _, w := range s.workers {
		if w.dead || w.unit == nil || now.Sub(w.assignedAt) < s.unitDeadline {
			continue
		}
		u := w.unit
		w.unit = nil
		s.straggledC.Inc()
		s.log("unit-straggled", "unit", u.ID, "worker", w.name)
		queue, outstanding = s.requeue(u, queue, outstanding, done,
			fmt.Errorf("dist: unit %d exceeded deadline %v on worker %s", u.ID, s.unitDeadline, w.name))
	}
	return queue, outstanding
}

// requeue puts a lost unit back at the front of the queue (front, not
// back: the lost unit is the oldest outstanding work, and resuming it
// first keeps fold latency bounded) — unless its retry budget is spent,
// in which case the unit is quarantined: counted done without a result,
// reported, and never retried, so the campaign completes around it.
func (s *scheduler) requeue(u *Unit, queue []*Unit, outstanding int, done map[int]bool, cause error) ([]*Unit, int) {
	if u == nil || done[u.ID] {
		return queue, outstanding
	}
	s.attempts[u.ID]++
	if s.retryBudget > 0 && s.attempts[u.ID] > s.retryBudget {
		done[u.ID] = true
		s.quarantined = append(s.quarantined, u.ID)
		s.quarantinedC.Inc()
		s.log("unit-quarantined", "unit", u.ID, "attempts", s.attempts[u.ID], "cause", cause.Error())
		return queue, outstanding - 1
	}
	s.reassigned++
	s.log("unit-reassigned", "unit", u.ID, "attempt", s.attempts[u.ID], "cause", cause.Error())
	return append([]*Unit{u}, queue...), outstanding
}

// quarantineSet returns the quarantined unit IDs as a membership map for
// the merge paths. Safe only after execute returns.
func (s *scheduler) quarantineSet() map[int]bool {
	set := make(map[int]bool, len(s.quarantined))
	for _, id := range s.quarantined {
		set[id] = true
	}
	return set
}

// drop declares a worker dead and requeues its in-flight unit.
func (s *scheduler) drop(w *remoteWorker, queue []*Unit, outstanding int, done map[int]bool, cause error) ([]*Unit, int) {
	if w.dead {
		return queue, outstanding
	}
	w.dead = true
	_ = w.conn.Close()
	s.log("worker-dead", "worker", w.name, "cause", cause.Error())
	if u := w.unit; u != nil {
		w.unit = nil
		return s.requeue(u, queue, outstanding, done, cause)
	}
	return queue, outstanding
}

// shutdown sends done to every live worker and stops event delivery.
func (s *scheduler) shutdown() {
	s.once.Do(func() {
		close(s.closed)
		s.admit.Lock()
		s.down = true
		s.admit.Unlock()
		for _, w := range s.admitted {
			if !w.dead {
				_ = w.conn.Send(&Message{Kind: MsgDone})
				_ = w.conn.Close()
			}
		}
	})
}
