package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"expensive/internal/obs"
)

// poolObs bundles the pool's telemetry handles, resolved once per Map or
// Prefetch call from the recorder on the context. The zero value (no
// recorder) leaves every handle nil, so instrument calls cost one pointer
// check each — telemetry never touches the deterministic job semantics,
// it only counts them.
type poolObs struct {
	jobs  *obs.Counter   // runner_jobs: jobs completed across all pools
	depth *obs.Gauge     // runner_queue_depth: jobs not yet claimed
	jobNS *obs.Histogram // runner_job_ns: per-job latency
	rec   *obs.Recorder  // kept to resolve per-worker counters lazily
}

func poolObsFrom(ctx context.Context) poolObs {
	rec := obs.From(ctx)
	return poolObs{
		jobs:  rec.Counter("runner_jobs"),
		depth: rec.Gauge("runner_queue_depth"),
		jobNS: rec.Histogram("runner_job_ns"),
		rec:   rec,
	}
}

// worker returns the per-worker attribution handles for worker w, nil
// handles when telemetry is off. Resolved once at worker-goroutine start,
// never inside the job loop.
func (p poolObs) worker(w int) (jobs *obs.Counter, busyNS *obs.Counter) {
	if p.rec == nil {
		return nil, nil
	}
	return p.rec.Counter(fmt.Sprintf("runner_worker_%d_jobs", w)),
		p.rec.Counter(fmt.Sprintf("runner_worker_%d_busy_ns", w))
}

// Workers resolves a requested parallelism level: values <= 0 mean
// runtime.NumCPU().
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.NumCPU()
	}
	return parallelism
}

// fan starts workers goroutines that claim the indices 0..n-1 in ascending
// order off one counter and call do on each. Once ctx is cancelled the
// indices still unclaimed keep being claimed, in order, but go to skip
// instead of do. Cancellation is read before the claim, so when a do
// cancels ctx every lower index — claimed earlier — still runs. The
// returned group is done when every index is claimed and every do has
// returned.
func fan(ctx context.Context, po poolObs, workers, n int, do, skip func(i int)) *sync.WaitGroup {
	var next atomic.Int64
	wg := new(sync.WaitGroup)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			wjobs, wbusy := po.worker(w)
			for {
				cancelled := ctx.Err() != nil
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				po.depth.Set(max(0, int64(n)-next.Load()))
				if cancelled {
					skip(i)
					continue
				}
				t := po.jobNS.StartTimer()
				do(i)
				wbusy.Add(t.Stop())
				po.jobs.Inc()
				wjobs.Inc()
			}
		}(w)
	}
	return wg
}

// Map runs fn(0), …, fn(n-1) on a pool of workers and returns the results
// in index order. workers <= 1 runs the jobs inline, in order, stopping at
// the first error — the serial semantics every parallel run must
// reproduce.
//
// With workers > 1 the jobs are claimed in index order (fan). An error
// cancels the remaining (not yet started) jobs, which fail with the
// context's error; because fn must be deterministic and every index
// below a failing one still runs, the lowest-index error is exactly the
// error a serial run would have returned, so Map is observationally
// equivalent to the serial loop — under the caller's cancellation too.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	po := poolObsFrom(ctx)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		wjobs, wbusy := po.worker(0)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			t := po.jobNS.StartTimer()
			v, err := fn(i)
			wbusy.Add(t.Stop())
			po.jobs.Inc()
			wjobs.Inc()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	fan(ctx, po, workers, n, func(i int) {
		if out[i], errs[i] = fn(i); errs[i] != nil {
			cancel()
		}
	}, func(i int) { errs[i] = ctx.Err() }).Wait()
	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// Promise is the deferred result of one job submitted via Prefetch.
type Promise[T any] struct {
	lazy func() (T, error) // serial mode: computed inline on first Wait
	once sync.Once
	done chan struct{} // parallel mode: closed when the job resolves
	val  T
	err  error
}

// Wait blocks until the job has run (or was cancelled) and returns its
// result. In serial mode the job is computed inline on the caller's
// goroutine at first Wait.
func (p *Promise[T]) Wait() (T, error) {
	if p.lazy != nil {
		p.once.Do(func() { p.val, p.err = p.lazy() })
		return p.val, p.err
	}
	<-p.done
	return p.val, p.err
}

// resolve publishes the job's outcome exactly once (parallel mode).
func (p *Promise[T]) resolve(v T, err error) {
	p.once.Do(func() {
		p.val, p.err = v, err
		close(p.done)
	})
}

// Prefetch launches fn(0), …, fn(n-1) speculatively on a pool of workers
// and returns one promise per job plus a cancel function. The consumer
// resolves promises in whatever order it likes — typically sequentially,
// stopping early — and calls cancel to stop the jobs it never consumed
// (in-flight jobs run to completion; unstarted ones resolve with the
// context error).
//
// The returned cancel function *joins* the pool: it stops unstarted jobs
// and then waits for in-flight ones to finish, so after cancel returns no
// speculative work is still burning CPU (or incrementing sim.Runs) in the
// background — per-experiment probe and wall-clock attribution stays
// exact.
//
// workers <= 1 degrades to fully lazy evaluation: each promise computes
// its job inline on first Wait, so a serial caller does exactly the same
// work, in exactly the same order, as a plain sequential loop — no
// speculative probes, no goroutines.
func Prefetch[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]*Promise[T], context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	promises := make([]*Promise[T], n)
	po := poolObsFrom(ctx)

	if workers <= 1 {
		for i := range promises {
			i := i
			promises[i] = &Promise[T]{lazy: func() (T, error) {
				if err := ctx.Err(); err != nil {
					var zero T
					return zero, err
				}
				t := po.jobNS.StartTimer()
				v, err := fn(i)
				t.Stop()
				po.jobs.Inc()
				return v, err
			}}
		}
		return promises, func() {}
	}

	for i := range promises {
		promises[i] = &Promise[T]{done: make(chan struct{})}
	}
	ctx, cancel := context.WithCancel(ctx)
	wg := fan(ctx, po, min(workers, n), n,
		func(i int) { promises[i].resolve(fn(i)) },
		func(i int) {
			var zero T
			promises[i].resolve(zero, ctx.Err())
		})
	return promises, func() {
		cancel()
		wg.Wait()
	}
}
