package experiments

import (
	"fmt"

	"expensive/internal/crypto/sig"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/protocols/eig"
	"expensive/internal/protocols/ic"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
)

// E9 measures the message and round scaling of the matching (upper-bound)
// protocols against the t²/32 floor: the quadratic envelope the paper's
// lower bound says is unavoidable. Every (protocol, n) grid point is an
// independent fault-free run fanned out across the worker pool; rows land
// in grid order.
func E9(sizes []int, opts runner.Options) (*Table, error) {
	scheme := sig.NewIdeal("e9")
	tab := &Table{
		ID:    "E9",
		Title: "Upper bounds — message/round scaling of the matching protocols vs. the t²/32 floor",
		Header: []string{
			"protocol", "n", "t", "rounds used", "round bound",
			"msgs (correct)", "t²/32", "msgs/n²",
		},
	}
	type point struct {
		name    string
		factory sim.Factory
		n, t    int
		bound   int
	}
	var grid []point
	for _, n := range sizes {
		t := (n - 1) / 3
		if t < 1 {
			t = 1
		}

		// Dolev-Strong Byzantine broadcast, t < n.
		tBB := n / 2
		grid = append(grid, point{
			name: "dolev-strong BB", n: n, t: tBB, bound: dolevstrong.RoundBound(tBB),
			factory: dolevstrong.New(dolevstrong.Config{N: n, T: tBB, Sender: 0, Scheme: scheme, Tag: "bb", Default: "⊥"}),
		})

		// Authenticated IC (n parallel broadcasts).
		grid = append(grid, point{
			name: "interactive consistency (auth)", n: n, t: t, bound: ic.RoundBound(t),
			factory: ic.New(ic.Config{N: n, T: t, Scheme: scheme, Default: msg.One}),
		})

		// Phase-King strong consensus, n > 4t.
		if tPK := (n - 1) / 4; tPK >= 1 {
			grid = append(grid, point{
				name: "phase-king", n: n, t: tPK, bound: phaseking.RoundBound(tPK),
				factory: phaseking.New(phaseking.Config{N: n, T: tPK}),
			})
		}

		// EIG only at small n (message size is exponential in t).
		if n <= 8 {
			grid = append(grid, point{
				name: "interactive consistency (EIG)", n: n, t: t, bound: eig.RoundBound(t),
				factory: eig.New(eig.Config{N: n, T: t, Default: msg.One}),
			})
		}
	}
	rows, err := runner.Map(opts.Context(), opts.Workers(), len(grid), func(i int) ([]string, error) {
		p := grid[i]
		return scalingRow(p.name, p.factory, p.n, p.t, p.bound)
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

func scalingRow(name string, factory sim.Factory, n, t, bound int) ([]string, error) {
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
