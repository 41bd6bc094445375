// Package obs is the flight recorder: a zero-overhead-when-off telemetry
// layer for the long-running probe engines — campaigns, the fuzzer,
// matrix sweeps, the falsifier, and the experiment runner pool.
//
// The package is built around one invariant, inherited from the rest of
// the repo: telemetry must never touch the deterministic fold path.
// Campaign, fuzz and matrix JSON reports are byte-identical at every
// parallelism level with telemetry on or off; everything obs records —
// counters, gauges, latency/size histograms, trace events, progress
// lines — is a side channel that reads engine state but is never read
// back by it.
//
// # The nil Recorder is the off switch
//
// Every instrument handle (*Counter, *Gauge, *Histogram, *Sink) and the
// *Recorder itself are nil-safe: with telemetry off, instrumented code
// holds nil handles and every operation returns after a single pointer
// check — no allocation, no atomic, no clock read. The zero-allocation
// property is pinned by TestDisabledOpsAllocFree. Hot loops resolve
// handles once, outside the loop:
//
//	rec := obs.From(ctx)               // nil when telemetry is off
//	probes := rec.Counter("probes")    // nil handle when rec is nil
//	for ... {
//		probes.Inc()                   // one pointer check when off
//	}
//
// # Clock discipline
//
// obs is a sanctioned clock-reading package: the balint wallclock
// analyzer allows time.Now inside obs (like runner.Stopwatch) precisely
// so that probe and fold code never reads the wall clock itself — it
// calls obs, and the nondeterministic values stay on the telemetry side
// channel.
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil *Counter
// is the disabled instrument: every method no-ops after one pointer
// check.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, corpus size). The
// nil *Gauge is the disabled instrument.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Recorder is the telemetry registry a run threads through its probe
// loops: named counters, gauges and histograms plus an optional trace
// sink. The nil *Recorder is the disabled implementation — every method
// returns a nil instrument (or no-ops) after a single pointer check, so
// an uninstrumented run pays nothing.
//
// Instruments are identified by name and created on first use; looking a
// name up twice returns the same handle, so concurrent subsystems
// aggregate into shared series (every campaign inside a matrix sweep
// increments the same "campaign_probes" counter).
type Recorder struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sink     atomic.Pointer[Sink]
	start    time.Time
}

// New returns an enabled, empty recorder.
func New() *Recorder {
	return &Recorder{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the disabled instrument) on the nil recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on the nil recorder.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named log-bucketed histogram, creating it on
// first use. Returns nil on the nil recorder.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetSink installs the trace-event sink (nil detaches it).
func (r *Recorder) SetSink(s *Sink) {
	if r == nil {
		return
	}
	r.sink.Store(s)
}

// Sink returns the installed trace sink, nil when the recorder is nil or
// no sink is attached. Hot loops guard per-probe events with a plain
// nil check on the returned handle.
func (r *Recorder) Sink() *Sink {
	if r == nil {
		return nil
	}
	return r.sink.Load()
}

// Uptime returns the wall time since the recorder was created (0 on the
// nil recorder).
func (r *Recorder) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Metric is one serialized instrument: a point-in-time view of a
// counter, gauge or histogram. The JSONL metrics dump and the expvar
// export both emit this shape.
type Metric struct {
	// Type is "counter", "gauge" or "histogram".
	Type string `json:"type"`
	Name string `json:"name"`
	// Value carries the counter count or gauge level.
	Value int64 `json:"value,omitempty"`
	// Histogram statistics.
	Count int64 `json:"count,omitempty"`
	Sum   int64 `json:"sum,omitempty"`
	P50   int64 `json:"p50,omitempty"`
	P90   int64 `json:"p90,omitempty"`
	P99   int64 `json:"p99,omitempty"`
	// Buckets lists the occupied log-2 buckets in ascending order.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot returns every instrument as a Metric, sorted by (type, name)
// — a deterministic encoding order, so two snapshots of identical
// instrument states serialize identically. Returns nil on the nil
// recorder.
func (r *Recorder) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Collect and sort names before reading anything: map iteration order
	// must never reach an encoder (the repo-wide maporder discipline).
	cnames := make([]string, 0, len(r.counters))
	for name := range r.counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	gnames := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	hnames := make([]string, 0, len(r.hists))
	for name := range r.hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)

	out := make([]Metric, 0, len(cnames)+len(gnames)+len(hnames))
	for _, name := range cnames {
		out = append(out, Metric{Type: "counter", Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range gnames {
		out = append(out, Metric{Type: "gauge", Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range hnames {
		h := r.hists[name]
		m := Metric{
			Type:    "histogram",
			Name:    name,
			Count:   h.Count(),
			Sum:     h.Sum(),
			Buckets: h.Buckets(),
		}
		m.P50, m.P90, m.P99 = h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
		out = append(out, m)
	}
	return out
}

// recorderKey is the context key Into/From share.
type recorderKey struct{}

// Into attaches the recorder to the context. Probe engines (campaigns,
// the fuzzer, matrix sweeps, the falsifier, the runner pool) read it
// back with From; a nil recorder attaches nothing.
func Into(ctx context.Context, r *Recorder) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, r)
}

// From extracts the recorder attached with Into, nil when the context is
// nil or carries none — the disabled recorder, on which every instrument
// lookup returns the disabled instrument.
func From(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}
