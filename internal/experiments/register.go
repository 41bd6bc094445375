package experiments

import (
	"expensive/internal/experiments/runner"
)

// init registers E1–E12 with their recorded default parameters. The
// registry replaces the old hand-written switch: every experiment is a
// uniformly addressable, concurrently executable unit, and adding a new
// one is a single Register call (see README.md, "The experiment engine").
func init() {
	runner.Register(runner.Experiment{
		ID:     "E1",
		Title:  "Theorem 2 / Lemma 1 — the Ω(t²) falsifier vs. weak consensus protocols",
		Params: "cheap n=40 t=16; sound n=70 t=16",
		Run:    func(o runner.Options) (*Table, error) { return E1(40, 16, 70, 16, o) },
	})
	runner.Register(runner.Experiment{
		ID:     "E2",
		Title:  "Figure 1 — isolation anatomy of the chained-echo protocol",
		Params: "n=20 t=8 isolate@3",
		Run:    func(runner.Options) (*Table, error) { return E2(20, 8, 3) },
	})
	runner.Register(runner.Experiment{
		ID:     "E3",
		Title:  "Figure 2 / Lemmas 3-5 — the construction narrative on the star protocol",
		Params: "n=40 t=16",
		Run:    func(o runner.Options) (*Table, error) { return E3(40, 16, o) },
	})
	runner.Register(runner.Experiment{
		ID:     "E4",
		Title:  "Lemma 2 / Algorithm 4 — swap_omission on the leader protocol",
		Params: "n=24 t=8",
		Run:    func(runner.Options) (*Table, error) { return E4(24, 8) },
	})
	runner.Register(runner.Experiment{
		ID:     "E5",
		Title:  "Theorem 3 / Algorithm 1 — zero-message reduction to weak consensus",
		Params: "n=6 t=1",
		Run:    func(runner.Options) (*Table, error) { return E5(6, 1) },
	})
	runner.Register(runner.Experiment{
		ID:     "E6",
		Title:  "Theorem 4 — general solvability matrix: CC verdict vs. derived-protocol check",
		Params: "(n,t) ∈ {(4,1),(4,2),(5,2)}",
		Run:    func(o runner.Options) (*Table, error) { return E6([][2]int{{4, 1}, {4, 2}, {5, 2}}, o) },
	})
	runner.Register(runner.Experiment{
		ID:     "E7",
		Title:  "Theorem 5 — strong consensus is authenticated-solvable only if n > 2t",
		Params: "t <= 3",
		Run:    func(runner.Options) (*Table, error) { return E7(3) },
	})
	runner.Register(runner.Experiment{
		ID:     "E8",
		Title:  "Corollary 1 — External Validity agreement is quadratic too",
		Params: "n=40 t=16",
		Run:    func(o runner.Options) (*Table, error) { return E8(40, 16, o) },
	})
	runner.Register(runner.Experiment{
		ID:     "E9",
		Title:  "Upper bounds — message/round scaling vs. the t²/32 floor",
		Params: "n ∈ {4,8,16,24}",
		Run:    func(o runner.Options) (*Table, error) { return E9([]int{4, 8, 16, 24}, o) },
	})
	runner.Register(runner.Experiment{
		ID:     "E10",
		Title:  "Failure-model hierarchy — crash ⊊ omission ⊊ Byzantine",
		Params: "n=8 t=2",
		Run:    func(runner.Options) (*Table, error) { return E10(8, 2) },
	})
	runner.Register(runner.Experiment{
		ID:     "E11",
		Title:  "Ablations — each design choice is load-bearing",
		Params: "per-construction fixtures",
		Run:    func(runner.Options) (*Table, error) { return E11() },
	})
	runner.Register(runner.Experiment{
		ID:     "E12",
		Title:  "Good-case latency — early stopping adapts to actual faults",
		Params: "n=10 t=4",
		Run:    func(runner.Options) (*Table, error) { return E12(10, 4) },
	})
}

// AllIDs lists the experiment identifiers in registration order.
func AllIDs() []string { return runner.IDs() }

// Run executes one experiment by ID with its default parameters and
// default parallelism (NumCPU workers).
func Run(id string) (*Table, error) { return RunWith(id, runner.Options{}) }

// RunWith executes one experiment by ID with explicit engine options.
func RunWith(id string, opts runner.Options) (*Table, error) {
	e, ok := runner.Lookup(id)
	if !ok {
		return nil, runner.UnknownIDError(id)
	}
	return e.Run(opts)
}
