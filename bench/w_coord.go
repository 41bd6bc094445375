package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog/matrix"
	"expensive/internal/dist"
	"expensive/internal/transport/chaosnet"
)

// coordBudget is the probe budget of one coord-fuzz round: 256 units of
// 16 probes, a barrier per 64-probe generation.
const coordBudget = 4096

// fuzzJob is the fuzz-floodset campaign as a serialisable dist job. A
// fresh one is built per run: the coordinator normalises the job it is
// given in place.
func fuzzJob(seed int64, budget int) *dist.Job {
	return &dist.Job{Kind: "fuzz", Fuzz: &dist.FuzzJob{
		Protocol: "floodset", SeedStrategy: "random-omission", Bias: matrix.DefaultBias,
		N: 8, T: 2, Budget: budget, FuzzSeed: seedBase(seed),
	}}
}

// huntJob is the hunt-omission campaign as a dist job (default 16 units).
func huntJob(seed int64, seeds int) *dist.Job {
	from := seedBase(seed)
	return &dist.Job{Kind: "hunt", Hunt: &dist.HuntJob{
		Protocol: "floodset", Strategy: "random-omission", Bias: matrix.DefaultBias,
		N: 8, T: 2, Seeds: adversary.SeedRange{From: from, To: from + int64(seeds)}, MaxViolations: 1,
	}}
}

// coordinate runs job through a coordinator with in-process workers over
// loopback TCP, each probing serially, and returns the bench's wall time.
func coordinate(job *dist.Job, workers int) (*dist.Report, time.Duration, error) {
	c := &dist.Coordinator{Job: job, LocalWorkers: workers, WorkerParallelism: 1}
	t0 := time.Now()
	rep, err := c.Run()
	return rep, time.Since(t0), err
}

// reportDigest hashes what a distributed run must reproduce byte for
// byte: the report encoding and, for fuzz jobs, the merged corpus.
func reportDigest(rep *dist.Report) (string, error) {
	return digestJSON(rep, rep.Corpus)
}

func coordFuzz() workload {
	return workload{
		name: "coord-fuzz",
		op:   "probe",
		setup: func(seed int64, div int) (*prepared, error) {
			budget := scaled(coordBudget, div, 128)
			if _, _, err := coordinate(fuzzJob(seed, scaled(budget, 4, 64)), 1); err != nil {
				return nil, err
			}
			var digest string
			return &prepared{
				round: func() (roundOut, error) {
					rep, wall, err := coordinate(fuzzJob(seed, budget), 1)
					if err != nil {
						return roundOut{}, err
					}
					out := roundOut{Attempted: budget, Work: float64(budget), Rate: float64(budget) / wall.Seconds()}
					if rep.Fuzz == nil || rep.Fuzz.Probes != budget || len(rep.Quarantined) != 0 {
						out.Failed = budget
					}
					out.Digest, err = reportDigest(rep)
					digest = out.Digest
					return out, err
				},
				// Report and corpus must equal the single-process oracle's.
				verify: func() error {
					rep, err := dist.Serial(context.Background(), fuzzJob(seed, budget))
					if err != nil {
						return err
					}
					serial, err := reportDigest(rep)
					if err != nil {
						return err
					}
					if serial != digest {
						return fmt.Errorf("coordinator report+corpus (%s) differ from dist.Serial (%s)", digest, serial)
					}
					return nil
				},
			}, nil
		},
		trace: traceCoord,
	}
}

// countingForwarder relays TCP connections to target and counts the bytes
// in both directions: the wire cost of a campaign, read off the socket
// rather than off the program's own counters.
type countingForwarder struct {
	ln    net.Listener
	bytes atomic.Int64
	wg    sync.WaitGroup
}

func forwardTo(target string) (*countingForwarder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &countingForwarder{ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return // listener closed: the campaign is over
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			f.wg.Add(2)
			go f.pipe(up, down)
			go f.pipe(down, up)
		}
	}()
	return f, nil
}

func (f *countingForwarder) pipe(dst, src net.Conn) {
	defer f.wg.Done()
	n, _ := io.Copy(dst, src) // ends when either side closes
	f.bytes.Add(n)
	dst.Close()
	src.Close()
}

// close stops accepting and waits for every relay goroutine to end.
func (f *countingForwarder) close() int64 {
	f.ln.Close()
	f.wg.Wait()
	return f.bytes.Load()
}

// coordinateVia runs job with one external worker whose link passes
// through setup's address rewrite (the forwarder) and carries chaos, if
// any. A worker the chaos kills is respawned, as the soak harness does.
func coordinateVia(c *dist.Coordinator, workerAddr string, chaos *chaosnet.Plan) (*dist.Report, error) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for incarnation := 0; incarnation < 50; incarnation++ {
			w := &dist.Worker{Addr: workerAddr, Name: fmt.Sprintf("bench-%d", incarnation), Parallelism: 1, Chaos: chaos, ChaosNode: 1}
			if err := w.Run(); err == nil {
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
		c.Drain() // never converged: fail the run instead of hanging it
	}()
	rep, err := c.Run()
	close(done)
	wg.Wait()
	return rep, err
}

// discardConn is a net.Conn that swallows writes, for timing Conn.Send's
// marshal+frame cost without a socket. Send only ever writes.
type discardConn struct {
	net.Conn
	n int64
}

func (d *discardConn) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

// representativeMessages builds a real mutation-generation unit (16
// candidates) and its result from the job's own session.
func representativeMessages(seed int64) (*dist.Message, *dist.Message, error) {
	f, err := floodsetFuzzer(seed, 256, 1)
	if err != nil {
		return nil, nil, err
	}
	s, err := f.NewSession()
	if err != nil {
		return nil, nil, err
	}
	for g := s.NextGeneration(); g != nil; g = s.NextGeneration() {
		results := make([]fuzz.Outcome, g.Count)
		for i := range results {
			if results[i], err = s.Probe(g, i); err != nil {
				return nil, nil, err
			}
		}
		if !g.Seed && len(g.Candidates) >= 16 {
			unit := &dist.Unit{ID: 1, Batch: &dist.FuzzBatch{Gen: g.Gen, Count: 16, Candidates: g.Candidates[:16]}}
			result := &dist.Result{Unit: 1, Probes: 16, Fuzz: results[:16]}
			return &dist.Message{Kind: dist.MsgUnit, Unit: unit}, &dist.Message{Kind: dist.MsgResult, Result: result}, nil
		}
		s.Fold(g, results)
	}
	return nil, nil, fmt.Errorf("no mutation generation with 16 candidates")
}

// traceCoord measures the distributed layer piece by piece around the
// coord-fuzz job: the serial oracle, the coordinator against the local
// engine on the same job (fuzz and hunt), two workers against one, bytes
// on the wire, a frame's round trip and encode rate, and a flaky link.
func traceCoord(seed int64, div int, tr *tracer, m *metricSet) (int, int, error) {
	budget := scaled(coordBudget, div, 128)
	seeds := scaled(huntSeeds, div, 64)
	fail := func(err error) (int, int, error) { return budget, budget, err }

	sp := tr.begin("dist.serial")
	serial, err := dist.Serial(context.Background(), fuzzJob(seed, budget))
	m.set("dist.serial_wall_s", tr.end(sp).Seconds())
	if err != nil {
		return fail(err)
	}
	want, err := reportDigest(serial)
	if err != nil {
		return fail(err)
	}

	// One worker behind a byte-counting forwarder.
	c := &dist.Coordinator{Job: fuzzJob(seed, budget)}
	if err := c.Start(); err != nil {
		return fail(err)
	}
	fwd, err := forwardTo(c.ListenAddr())
	if err != nil {
		return fail(err)
	}
	sp = tr.begin("dist.coordinator_run")
	rep, err := coordinateVia(c, fwd.ln.Addr().String(), nil)
	tr.end(sp)
	wire := fwd.close()
	if err != nil {
		return fail(err)
	}
	got, err := reportDigest(rep)
	if err != nil {
		return fail(err)
	}
	failed := 0
	if got != want || len(rep.Quarantined) != 0 {
		failed = budget
	}
	m.set("dist.units", float64(rep.Units))
	m.set("dist.reassigned", float64(rep.Reassigned))
	m.set("dist.wire_bytes_per_unit", float64(wire)/float64(rep.Units))
	m.set("dist.wire_bytes_per_probe", float64(wire)/float64(budget))

	// Coordinator against the local engine, and two workers against one.
	rateOf := func(job func() *dist.Job, workers, probes int) (float64, error) {
		var rates []float64
		for i := 0; i < 3; i++ {
			sp := tr.begin(fmt.Sprintf("dist.coordinator_run.%s.w%d", job().Kind, workers))
			_, wall, err := coordinate(job(), workers)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			rates = append(rates, float64(probes)/wall.Seconds())
		}
		return median(rates), nil
	}
	fj := func() *dist.Job { return fuzzJob(seed, budget) }
	hj := func() *dist.Job { return huntJob(seed, seeds) }
	w2 := 2
	if runtime.NumCPU() < 2 {
		w2 = 1
	}
	fuzz1, err := rateOf(fj, 1, budget)
	if err != nil {
		return fail(err)
	}
	fuzz2, err := rateOf(fj, w2, budget)
	if err != nil {
		return fail(err)
	}
	hunt1, err := rateOf(hj, 1, seeds)
	if err != nil {
		return fail(err)
	}
	hunt2, err := rateOf(hj, w2, seeds)
	if err != nil {
		return fail(err)
	}
	var localFuzz, localHunt []float64
	for i := 0; i < 3; i++ {
		_, _, wall, err := runFuzzer(seed, budget, 1)
		if err != nil {
			return fail(err)
		}
		localFuzz = append(localFuzz, float64(budget)/wall.Seconds())
		h, err := huntCampaign(seedBase(seed), seeds, 1)
		if err != nil {
			return fail(err)
		}
		_, wall, err = timedCampaign(h)
		if err != nil {
			return fail(err)
		}
		localHunt = append(localHunt, float64(seeds)/wall.Seconds())
	}
	m.set("dist.overhead_ratio.fuzz", fuzz1/median(localFuzz))
	m.set("dist.overhead_ratio.hunt", hunt1/median(localHunt))
	m.set("dist.scaling.fuzz.w2", fuzz2/fuzz1)
	m.set("dist.scaling.hunt.w2", hunt2/hunt1)

	// A flaky link (15 % drops, 25 % delays up to 8 ms) against a clean
	// one, same hunt job, same single worker: what recovery costs. The
	// figure reflects injected delay and the 150 ms unit deadline (a unit
	// is 256 probes, about 20 ms of work).
	linkRate := func(chaos *chaosnet.Plan) (float64, error) {
		c := &dist.Coordinator{Job: hj(), HeartbeatTimeout: 2 * time.Second, UnitDeadline: 150 * time.Millisecond, RetryBudget: -1}
		if err := c.Start(); err != nil {
			return 0, err
		}
		sp := tr.begin("dist.coordinator_run.link")
		_, err := coordinateVia(c, c.ListenAddr(), chaos)
		return float64(seeds) / tr.end(sp).Seconds(), err
	}
	clean, err := linkRate(nil)
	if err != nil {
		return fail(err)
	}
	profile, _ := chaosnet.ByID("flaky")
	flaky, err := linkRate(profile.Build(seed, chaosnet.Env{}))
	if err != nil {
		return fail(err)
	}
	m.set("dist.chaos_overhead_ratio.flaky", flaky/clean)

	// One unit out, one result back, over a loopback socket.
	unit, result, err := representativeMessages(seed)
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer ln.Close()
	trips := scaled(2000, div, 20)
	echoErr := make(chan error, 1) // the echo goroutine reports once
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		peer := dist.NewConn(nc)
		defer peer.Close()
		for i := 0; i < trips; i++ {
			if _, err := peer.Recv(10 * time.Second); err != nil {
				echoErr <- err
				return
			}
			if err := peer.Send(result); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	conn, err := dist.Dial(ln.Addr().String(), 3, 10*time.Millisecond)
	if err != nil {
		return fail(err)
	}
	defer conn.Close()
	sp = tr.begin("dist.wire_roundtrips")
	for i := 0; i < trips; i++ {
		if err := conn.Send(unit); err != nil {
			return fail(err)
		}
		if _, err := conn.Recv(10 * time.Second); err != nil {
			return fail(err)
		}
	}
	m.set("dist.wire_roundtrip_us", float64(tr.end(sp).Nanoseconds())/1e3/float64(trips))
	if err := <-echoErr; err != nil {
		return fail(err)
	}

	sink := &discardConn{}
	enc := dist.NewConn(sink)
	sp = tr.begin("dist.wire_encode")
	for i := 0; i < trips; i++ {
		if err := enc.Send(unit); err != nil {
			return fail(err)
		}
		if err := enc.Send(result); err != nil {
			return fail(err)
		}
	}
	m.set("dist.wire_encode_mb_per_s", float64(sink.n)/1e6/tr.end(sp).Seconds())
	return budget, failed, nil
}
