package experiments

import (
	"fmt"

	"expensive/internal/catalog"
	"expensive/internal/crypto/sig"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// E9 measures the message and round scaling of the matching (upper-bound)
// protocols against the t²/32 floor: the quadratic envelope the paper's
// lower bound says is unavoidable. Every (protocol, n) grid point is an
// independent fault-free run fanned out across the worker pool; rows land
// in grid order.
func E9(sizes []int, opts runner.Options) (*Table, error) {
	tab := &Table{
		ID:    "E9",
		Title: "Upper bounds — message/round scaling of the matching protocols vs. the t²/32 floor",
		Header: []string{
			"protocol", "n", "t", "rounds used", "round bound",
			"msgs (correct)", "t²/32", "msgs/n²",
		},
	}
	type point struct {
		name, id string
		n, t     int
	}
	var grid []point
	for _, n := range sizes {
		t := (n - 1) / 3
		if t < 1 {
			t = 1
		}
		// Dolev-Strong Byzantine broadcast, t < n; authenticated IC (n
		// parallel broadcasts).
		grid = append(grid,
			point{"dolev-strong BB", "dolev-strong", n, n / 2},
			point{"interactive consistency (auth)", "ic", n, t})
		// Phase-King strong consensus, n > 4t.
		if tPK := (n - 1) / 4; tPK >= 1 {
			grid = append(grid, point{"phase-king", "phase-king", n, tPK})
		}
		// EIG only at small n (message size is exponential in t).
		if n <= 8 {
			grid = append(grid, point{"interactive consistency (EIG)", "eig", n, t})
		}
	}
	params := catalog.Params{Scheme: sig.NewIdeal("e9"), Default: msg.One}
	rows, err := runner.Map(opts.Context(), opts.Workers(), len(grid), func(i int) ([]string, error) {
		p := grid[i]
		return scalingRow(p.name, spec(p.id).Rebuilder(params), p.n, p.t)
	})
	if err != nil {
		return nil, err
	}
	tab.Rows = rows
	tab.Notes = append(tab.Notes,
		"msgs/n² exposes the quadratic envelope: roughly constant per protocol family as n grows",
		"the t²/32 column is the Theorem 2 floor every entry must (and does) clear",
	)
	return tab, nil
}

func scalingRow(name string, build func(n, t int) (sim.Factory, int, error), n, t int) ([]string, error) {
	factory, bound, err := build(n, t)
	if err != nil {
		return nil, fmt.Errorf("E9 %w", err)
	}
	e, err := leanRun(sim.Config{N: n, T: t, Proposals: msg.Uniform(n, msg.Zero), MaxRounds: sim.Horizon(bound)}, factory, sim.NoFaults{})
	if err != nil {
		return nil, fmt.Errorf("E9 %s n=%d: %w", name, n, err)
	}
	if _, err := e.CommonDecision(proc.Universe(n)); err != nil {
		return nil, fmt.Errorf("E9 %s n=%d: %w", name, n, err)
	}
	msgs := e.CorrectMessages()
	floor := lowerbound.Floor(t)
	if msgs < floor {
		return nil, fmt.Errorf("E9 %s n=%d: %d messages below the t²/32 floor %d — contradicts Theorem 2",
			name, n, msgs, floor)
	}
	return []string{
		name, itoa(n), itoa(t), itoa(e.Rounds), itoa(bound),
		itoa(msgs), itoa(floor), fmt.Sprintf("%.2f", float64(msgs)/float64(n*n)),
	}, nil
}
