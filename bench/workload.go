package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// roundOut is what one fixed-work round of a workload reports.
type roundOut struct {
	// Attempted and Failed count checked operations: probes, simulator
	// runs, committed slots, tables.
	Attempted, Failed int
	// Work is what ops_per_s and the per-op metrics count. It equals
	// Attempted except on the engine workloads, whose unit of work is one
	// simulated correct-process message.
	Work float64
	// Rate is the round's work per second, timed by the round around the
	// calls into the program.
	Rate float64
	// Digest is the sha256 of the round's deterministic output bytes.
	// Every round of a run has the same inputs, so it must not change.
	Digest string
}

// prepared is a workload set up for one seed.
type prepared struct {
	// round executes the workload's fixed work once.
	round func() (roundOut, error)
	// verify checks the rounds' output against an independent path through
	// the program (another tier, another schedule, the serial oracle). It
	// runs once, after the timed region.
	verify func() error
}

// workload is one named set of inputs. Why it exists is recorded in
// BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	// op names the unit of work ops_per_s counts.
	op string
	// setup derives every input from seed, constructs the job and runs a
	// small warm-up pass. div shrinks the fixed work (1 = the benchmark's
	// size; the smoke test passes 100).
	setup func(seed int64, div int) (*prepared, error)
	// trace is the traced pass: the bench drives the layer calls itself,
	// one span per call, and stores the per-layer metrics.
	trace func(seed int64, div int, tr *tracer, m *metricSet) (attempted, failed int, err error)
}

func workloads() []workload {
	return []workload{
		huntOmission(),
		engineSweep(),
		engineFull(),
		matrixCatalog(),
		fuzzFloodset(),
		coordFuzz(),
		smrLive(),
		paperTables(),
	}
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seedBase spreads run seeds over disjoint seed ranges: consecutive
// --seed values must not share probes, or ten "different" runs would
// repeat 99.99 % of one input.
func seedBase(seed int64) int64 {
	return int64(uint64(seed)%(1<<32)) << 20
}

// scaled divides a size for the smoke test, never below floor.
func scaled(n, div, floor int) int {
	if n /= div; n < floor {
		return floor
	}
	return n
}

// digestJSON hashes the JSON encoding of the given deterministic values.
func digestJSON(values ...interface{}) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range values {
		if err := enc.Encode(v); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// A run sets the workload up at least minSetups times, then until
// setupBudget has been spent, at most maxSetups times; setup_s is the
// median, so neither one cold first pass nor one preempted pass decides
// it. Set-ups take 20 to 200 ms, so the short ones get the most samples.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// stolenShare is the share of one CPU's time the hypervisor may take
// from the guest during a round (beyond a single tick, the counter's
// grain) before the round is set aside as disturbed, and maxOverrun is
// how many times --seconds a run may last while it waits for undisturbed
// rounds. On the 2-vCPU reference box a neighbour's burst halves
// throughput for tens of seconds; without this one run in six was an
// outlier and the quartiles of ten runs could not hold a bound.
const (
	stolenShare = 0.03
	maxOverrun  = 2.5
)

// runResult is one untraced run of one workload.
type runResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Rounds    int // rounds executed
	Kept      int // rounds the metrics are taken over
	Digest    string
	// CPUPerOp (µs of process CPU time per unit of work) and PeakRSSMB
	// are printed with every run but are not end-to-end metrics: ten
	// identical runs spread them 15 to 30 % on the reference box (the
	// collector's concurrent phase decides the heap's overshoot), more
	// than any bound the contract allows could hold.
	CPUPerOp  float64
	PeakRSSMB float64
}

// roundSample is the bench's own measurement around one round.
type roundSample struct {
	rate, work     float64
	cpu            time.Duration
	mallocs, bytes float64
	disturbed      bool
}

// runUntraced measures one workload: set-up (repeated, median reported),
// then whole fixed-work rounds in a closed loop with one client until
// seconds of undisturbed rounds are in, then the oracle check.
func runUntraced(w workload, seed int64, seconds float64, div int, m *metricSet, log io.Writer) (runResult, error) {
	var res runResult
	var p *prepared
	var setups []float64
	for start := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(start) < setupBudget); {
		t0 := time.Now()
		var err error
		if p, err = w.setup(seed, div); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var samples []roundSample
	var quiet float64 // seconds of undisturbed rounds so far
	for start := time.Now(); ; {
		// Every round starts from a collected heap, so its place in the
		// collector's cycle does not depend on the round before.
		runtime.GC()
		a0, st0, cpu0, t0 := readAllocs(), stolenTicks(), cpuTime(), time.Now()
		out, err := p.round()
		wall, cpu, stolen := time.Since(t0).Seconds(), cpuTime()-cpu0, stolenTicks()-st0
		mallocs, bytes := a0.since()
		if err != nil {
			return res, fmt.Errorf("%s: round %d: %w", w.name, res.Rounds+1, err)
		}
		res.Rounds++
		res.Attempted += out.Attempted
		res.Failed += out.Failed
		if res.Digest == "" {
			res.Digest = out.Digest
		} else if out.Digest != res.Digest {
			// Same inputs, different bytes: the whole round is wrong.
			fmt.Fprintf(log, "%s: round %d digest %s differs from round 1 %s\n", w.name, res.Rounds, out.Digest, res.Digest)
			res.Failed += out.Attempted - out.Failed
		}
		s := roundSample{rate: out.Rate, work: out.Work, cpu: cpu, mallocs: mallocs, bytes: bytes,
			disturbed: stolen > 1 && float64(stolen)/ticksPerSecond > stolenShare*wall}
		if !s.disturbed {
			quiet += wall
		}
		fmt.Fprintf(log, "round %d: %.6g %s/s, %.3f s, %d ticks stolen\n", res.Rounds, out.Rate, w.op, wall, stolen)
		samples = append(samples, s)
		if quiet >= seconds || time.Since(start).Seconds() >= maxOverrun*seconds {
			break
		}
	}
	res.PeakRSSMB = peakRSSMB()

	if err := p.verify(); err != nil {
		// The oracle covers every round (they share inputs and bytes).
		fmt.Fprintf(log, "%s: correctness check failed: %v\n", w.name, err)
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0

	// The metrics are taken over the undisturbed rounds; a run that saw
	// none keeps them all.
	var rates []float64
	var work, mallocs, bytes float64
	var cpu time.Duration
	for pass := 0; pass < 2 && len(rates) == 0; pass++ {
		for _, s := range samples {
			if pass == 1 || !s.disturbed {
				rates = append(rates, s.rate)
				work += s.work
				cpu += s.cpu
				mallocs += s.mallocs
				bytes += s.bytes
			}
		}
	}
	res.Kept = len(rates)
	res.CPUPerOp = float64(cpu.Nanoseconds()) / 1e3 / work
	m.set("ops_per_s", median(rates))
	m.set("allocs_per_op", mallocs/work)
	m.set("alloc_kb_per_op", bytes/1024/work)
	m.set("setup_s", median(setups))
	return res, m.err()
}
