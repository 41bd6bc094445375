package runner

import (
	"context"
	"fmt"
	"sync"
	"time"

	"expensive/internal/obs"
	"expensive/internal/sim"
)

// Options tunes one experiment run.
type Options struct {
	// Parallelism is the worker count for the experiment's independent
	// probes; <= 0 means runtime.NumCPU(). 1 forces the serial path.
	Parallelism int
	// Ctx cancels the run; nil means context.Background().
	Ctx context.Context
}

// Workers resolves the effective worker count.
func (o Options) Workers() int { return Workers(o.Parallelism) }

// Context resolves the effective context.
func (o Options) Context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Experiment is a registered, concurrently executable experiment: an ID,
// a one-line title, a human-readable description of the recorded default
// parameters, and the run function. Run must be deterministic — the table
// it returns must be byte-identical at every parallelism level.
type Experiment struct {
	ID     string
	Title  string
	Params string
	Run    func(Options) (*Table, error)
}

// Info is the registration metadata of one experiment (no run function).
type Info struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Params string `json:"params"`
}

var registry = struct {
	mu    sync.RWMutex
	byID  map[string]Experiment
	order []string
}{byID: make(map[string]Experiment)}

// Register adds an experiment to the registry. It panics on an empty ID,
// a missing run function, or a duplicate registration — all programmer
// errors at package-init time.
func Register(e Experiment) {
	if e.ID == "" || e.Run == nil {
		panic("runner: Register needs an ID and a Run function")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byID[e.ID]; dup {
		panic(fmt.Sprintf("runner: experiment %s registered twice", e.ID))
	}
	registry.byID[e.ID] = e
	registry.order = append(registry.order, e.ID)
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	e, ok := registry.byID[id]
	return e, ok
}

// IDs lists the registered experiment IDs in registration order.
func IDs() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return append([]string(nil), registry.order...)
}

// List returns the registration metadata in registration order.
func List() []Info {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Info, 0, len(registry.order))
	for _, id := range registry.order {
		e := registry.byID[id]
		out = append(out, Info{ID: e.ID, Title: e.Title, Params: e.Params})
	}
	return out
}

// Result couples an experiment table with execution statistics.
type Result struct {
	Table *Table `json:"table"`
	// Wall is the experiment's wall-clock time.
	Wall time.Duration `json:"-"`
	// WallMS mirrors Wall in milliseconds for the JSON encoding.
	WallMS float64 `json:"wall_ms"`
	// Probes counts the simulation probes (sim.Run invocations) the
	// experiment issued, including speculative ones.
	Probes int64 `json:"probes"`
	// Workers is the parallelism level the experiment ran with.
	Workers int `json:"workers"`
}

// UnknownIDError builds the canonical error for an unregistered
// experiment ID.
func UnknownIDError(id string) error {
	return fmt.Errorf("unknown experiment %q (have %v)", id, IDs())
}

// RunOne executes one registered experiment and reports its table plus
// wall-clock and probe-count statistics. Experiments run one at a time —
// parallelism lives inside each experiment — so the probe counter delta
// is attributable to this run.
func RunOne(id string, opts Options) (*Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, UnknownIDError(id)
	}
	before := sim.Runs()
	sw := StartWall()
	sink := obs.From(opts.Ctx).Sink()
	if sink != nil {
		sink.Emit("experiment-start", "id", id, "title", e.Title)
	}
	tab, err := e.Run(opts)
	if err != nil {
		return nil, err
	}
	wall := sw.Wall()
	if sink != nil {
		sink.Emit("experiment-end", "id", id, "probes", sim.Runs()-before)
	}
	obs.From(opts.Ctx).Counter("experiment_runs").Inc()
	return &Result{
		Table: tab,
		Wall:  wall,
		//balint:allow obstaint Result.wall_ms is the runner's deliberate timing block: the byte-identity contract covers experiment Tables, and Result exists to carry run stats next to one
		WallMS:  float64(wall.Microseconds()) / 1e3,
		Probes:  sim.Runs() - before,
		Workers: opts.Workers(),
	}, nil
}

// RunMany executes the given experiments in order (all of them when ids
// is empty), each with per-experiment statistics.
func RunMany(ids []string, opts Options) ([]*Result, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	out := make([]*Result, 0, len(ids))
	for _, id := range ids {
		res, err := RunOne(id, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
