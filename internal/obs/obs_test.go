package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	if c := r.Counter("x"); c != nil {
		t.Fatalf("nil recorder Counter = %v, want nil", c)
	}
	if g := r.Gauge("x"); g != nil {
		t.Fatalf("nil recorder Gauge = %v, want nil", g)
	}
	if h := r.Histogram("x"); h != nil {
		t.Fatalf("nil recorder Histogram = %v, want nil", h)
	}
	if s := r.Sink(); s != nil {
		t.Fatalf("nil recorder Sink = %v, want nil", s)
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil recorder Snapshot = %v, want nil", snap)
	}
	if err := r.WriteMetrics(io.Discard); err != nil {
		t.Fatalf("nil recorder WriteMetrics: %v", err)
	}
	// And every disabled instrument op is callable.
	var c *Counter
	c.Inc()
	c.Add(7)
	var g *Gauge
	g.Set(3)
	g.Add(1)
	var h *Histogram
	h.Observe(9)
	h.Merge(nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram Quantile = %d", got)
	}
	if tm := h.StartTimer(); tm.Stop() != 0 {
		t.Fatal("disabled timer measured something")
	}
	var s *Sink
	s.Emit("probe", "seed", 1)
}

// TestDisabledOpsAllocFree pins the flight recorder's core contract:
// with telemetry off (nil handles), every hot-path operation is
// allocation-free. The time half of the contract is measured by the
// benchmark's obs.telemetry_overhead_ratio metric.
func TestDisabledOpsAllocFree(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Sink
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(5)
		h.Observe(17)
		h.StartTimer().Stop()
		_ = r.Counter("campaign_probes")
		if s != nil { // the hot-loop event guard
			s.Emit("probe", "seed", 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry ops allocated %.1f per run, want 0", allocs)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("probes")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("probes") != c {
		t.Fatal("same name must return the same counter handle")
	}
	g := r.Gauge("depth")
	g.Set(9)
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := New()
	r.Counter("zeta").Add(1)
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(3)
	r.Histogram("lat").Observe(100)
	snap := r.Snapshot()
	var names []string
	for _, m := range snap {
		names = append(names, m.Type+"/"+m.Name)
	}
	want := []string{"counter/alpha", "counter/zeta", "gauge/mid", "histogram/lat"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}

	var buf1, buf2 bytes.Buffer
	if err := r.WriteMetrics(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("two metric dumps of the same state differ")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := From(nil); got != nil {
		t.Fatalf("From(nil) = %v", got)
	}
	if got := From(context.Background()); got != nil {
		t.Fatalf("From(background) = %v", got)
	}
	r := New()
	ctx := Into(context.Background(), r)
	if got := From(ctx); got != r {
		t.Fatalf("From(Into(ctx, r)) = %v, want %v", got, r)
	}
	if ctx := Into(nil, nil); From(ctx) != nil {
		t.Fatal("Into(nil, nil) must yield a recorder-free context")
	}
}

func TestSinkEmitsParsableJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.Emit("campaign-start", "protocol", "floodset", "n", 8)
	s.Emit("probe", "seed", int64(3), "messages", 112)
	s.Emit("odd-args", "key")
	if s.Events() != 3 {
		t.Fatalf("Events = %d, want 3", s.Events())
	}
	if err := s.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d does not parse: %v (%q)", lines, err, sc.Text())
		}
		if e.Name == "" {
			t.Fatalf("line %d missing name: %q", lines, sc.Text())
		}
	}
	if lines != 3 {
		t.Fatalf("got %d JSONL lines, want 3", lines)
	}
}

// errWriter fails every write after the first n bytes.
type errWriter struct{ fails bool }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.fails {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestSinkLatchesWriteError(t *testing.T) {
	w := &errWriter{}
	s := NewSink(w)
	s.Emit("ok")
	w.fails = true
	s.Emit("fails")
	s.Emit("dropped")
	if s.Err() == nil {
		t.Fatal("sink must latch the write error")
	}
	if s.Events() != 1 {
		t.Fatalf("Events = %d, want 1 (post-error events dropped)", s.Events())
	}
}

func TestSinkConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Emit("probe", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	if s.Events() != 400 {
		t.Fatalf("Events = %d, want 400", s.Events())
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("interleaved write corrupted a line: %v (%q)", err, sc.Text())
		}
	}
}

func TestProgressLines(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var cur int64 = 750
	p := StartProgress(ProgressConfig{
		Task:     "hunt",
		Total:    1000,
		Current:  func() int64 { return cur },
		W:        w,
		Interval: 5 * time.Millisecond,
	})
	time.Sleep(30 * time.Millisecond)
	p.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "hunt: 750/1000 probes (75.0%)") {
		t.Fatalf("progress lines missing count/percent:\n%s", out)
	}
	if !strings.Contains(out, "probes/s") {
		t.Fatalf("progress lines missing rate:\n%s", out)
	}
	if !strings.Contains(out, "done in") {
		t.Fatalf("final line missing:\n%s", out)
	}
	// Unknown totals render without percent or ETA.
	buf.Reset()
	p2 := StartProgress(ProgressConfig{Task: "falsify", Current: func() int64 { return 42 }, W: w, Interval: time.Hour})
	p2.Stop()
	mu.Lock()
	out = buf.String()
	mu.Unlock()
	if !strings.Contains(out, "falsify: 42 probes") || strings.Contains(out, "%") {
		t.Fatalf("unknown-total line wrong:\n%s", out)
	}
	// Nil-handle and missing-config safety.
	var nilP *Progress
	nilP.Stop()
	if StartProgress(ProgressConfig{}) != nil {
		t.Fatal("StartProgress without Current/W must return the no-op handle")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestServeDebug(t *testing.T) {
	r := New()
	r.Counter("campaign_probes").Add(123)
	r.Histogram("probe_ns").Observe(5000)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, `"name":"campaign_probes"`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "baexp_obs") {
		t.Fatalf("/debug/vars missing the obs export:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

func TestRecorderConcurrentInstrumentCreation(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(int64(i))
				r.Gauge("depth").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 1600 {
		t.Fatalf("shared counter = %d, want 1600", got)
	}
	if got := r.Histogram("lat").Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}
