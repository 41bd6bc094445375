package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"` // workload-run id shared by every span of one traced run
}

// rawSpan is a span as held in memory: pointer-free (the name is an index
// into tracer.names), so the garbage collector never scans the span
// buffer and recording does not slow the allocating code it times.
type rawSpan struct {
	parent, name int32
	start, end   int64
}

// tracer keeps spans in memory and writes them out when the run ends.
// Parentage follows the call stack of the goroutine driving the layers;
// the benchmark's loops are single-threaded, and the mutex only guards
// against a layer calling a bench-supplied closure from another
// goroutine.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	run    string
	outDir string // where the span file goes; traced passes put scratch files here too
	names  []string
	index  map[string]int32
	spans  []rawSpan
	stack  []int
}

func newTracer(run, outDir string) *tracer {
	return &tracer{epoch: time.Now(), run: run, outDir: outDir, index: make(map[string]int32), spans: make([]rawSpan, 0, 1<<16)}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	ni, ok := t.index[name]
	if !ok {
		ni = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = ni
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, rawSpan{parent: int32(parent), name: ni})
	t.stack = append(t.stack, id)
	t.spans[id-1].start = int64(time.Since(t.epoch))
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		if top == id {
			break
		}
	}
	return time.Duration(s.end - s.start)
}

// spanning returns a wrapper that runs a call inside a span called name:
// what the traced passes hand to loops they share with the untraced runs.
func (t *tracer) spanning(name string) func(call func()) {
	return func(call func()) {
		id := t.begin(name)
		call()
		t.end(id)
	}
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	Name  string
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // durations minus the part child spans cover
}

// byName folds the spans into per-name totals and self times, sorted by
// name. A span's self time is its duration minus its children's.
func (t *tracer) byName() []nameStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.parent] += s.end - s.start
	}
	out := make([]nameStat, len(t.names))
	for i, name := range t.names {
		out[i].Name = name
	}
	for i, s := range t.spans {
		d := s.end - s.start
		out[s.name].Count++
		out[s.name].Total += time.Duration(d)
		out[s.name].Self += time.Duration(d - child[i+1])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// stat returns the aggregate of one span name (zero when absent).
func (t *tracer) stat(name string) nameStat {
	for _, s := range t.byName() {
		if s.Name == name {
			return s
		}
	}
	return nameStat{Name: name}
}

// durations returns the duration of every span called name, in order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	if ni, ok := t.index[name]; ok {
		for _, s := range t.spans {
			if s.name == ni {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

// layerOf is the module a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write stores the spans as JSONL under dir.
func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(t.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(t.outDir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i, s := range t.spans {
		line := span{ID: i + 1, Parent: int(s.parent), Name: t.names[s.name], Start: s.start, End: s.end, Run: t.run}
		if err := enc.Encode(&line); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
