package main

import (
	"fmt"
	"strings"
	"time"

	"expensive/internal/analysis"
	"expensive/internal/analysis/balint"
	_ "expensive/internal/experiments" // registers E1 … E12
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/protocols/cheap"
	"expensive/internal/validity"
)

// paperIDs are the paper's experiments in registry order.
func paperIDs() []string {
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("E%d", i+1)
	}
	return ids
}

// cheapIDs are the experiments that regenerate in milliseconds: the
// warm-up pass and the full-width oracle use them. E1, E6 and E8 carry
// 98 % of the wall and are left to the timed rounds.
func cheapIDs() []string {
	var out []string
	for _, id := range paperIDs() {
		if id != "E1" && id != "E6" && id != "E8" {
			out = append(out, id)
		}
	}
	return out
}

// tablesOf extracts the deterministic part of the results.
func tablesOf(results []*runner.Result) []*runner.Table {
	out := make([]*runner.Table, len(results))
	for i, r := range results {
		out[i] = r.Table
	}
	return out
}

// paperTables regenerates E1–E12 serially. The experiments take no
// seed — their parameters are the paper's — so every run has the same
// inputs, and --seed changes nothing here. The smoke test's div keeps
// only the cheap tables.
func paperTables() workload {
	idsFor := func(div int) []string {
		if div > 1 {
			return cheapIDs()
		}
		return paperIDs()
	}
	return workload{
		name: "paper-tables",
		op:   "table",
		setup: func(seed int64, div int) (*prepared, error) {
			ids := idsFor(div)
			if _, err := runner.RunMany(cheapIDs(), runner.Options{Parallelism: 1}); err != nil {
				return nil, err
			}
			var tables []*runner.Table
			return &prepared{
				round: func() (roundOut, error) {
					t0 := time.Now()
					results, err := runner.RunMany(ids, runner.Options{Parallelism: 1})
					wall := time.Since(t0)
					if err != nil {
						return roundOut{}, err
					}
					tables = tablesOf(results)
					out := roundOut{Attempted: len(ids), Work: float64(len(ids)), Rate: float64(len(ids)) / wall.Seconds()}
					for _, t := range tables {
						if t == nil || len(t.Rows) == 0 {
							out.Failed++
						}
					}
					out.Digest, err = digestJSON(tables)
					return out, err
				},
				// The cheap tables regenerated on the full-width pool must be
				// byte-identical to the serial ones.
				verify: func() error {
					results, err := runner.RunMany(cheapIDs(), runner.Options{Parallelism: 0})
					if err != nil {
						return err
					}
					for _, wide := range tablesOf(results) {
						for _, serial := range tables {
							if serial.ID != wide.ID {
								continue
							}
							a, err := digestJSON(serial)
							if err != nil {
								return err
							}
							b, err := digestJSON(wide)
							if err != nil {
								return err
							}
							if a != b {
								return fmt.Errorf("table %s at full width differs from the serial table", wide.ID)
							}
						}
					}
					return nil
				},
			}, nil
		},
		trace: func(seed int64, div int, tr *tracer, m *metricSet) (int, int, error) {
			ids := idsFor(div)
			failed := 0
			root := tr.begin("bench.tables_loop")
			for _, id := range ids {
				sp := tr.begin("experiments." + id)
				res, err := runner.RunOne(id, runner.Options{Parallelism: 1})
				wall := tr.end(sp)
				if err != nil {
					return len(ids), len(ids), err
				}
				if res.Table == nil || len(res.Table.Rows) == 0 {
					failed++
				}
				m.set("experiments."+id+"_ms", float64(wall.Nanoseconds())/1e6)
			}
			tr.end(root)

			// The Theorem 2 falsifier alone, at E1's cheap-protocol size.
			sp := tr.begin("lowerbound.falsify")
			rep, err := lowerbound.Falsify("leader", cheap.Leader(40), cheap.LeaderRounds, 40, 16, lowerbound.Options{Parallelism: 1})
			m.set("lowerbound.falsify_ms.leader", float64(tr.end(sp).Nanoseconds())/1e6)
			if err != nil {
				return len(ids), len(ids), err
			}
			if !rep.Broken() {
				failed = len(ids) // the sub-quadratic leader protocol must fall
			}

			// The containment condition of Theorem 4 on three n=5 t=2 problems.
			sp = tr.begin("validity.checkcc")
			for _, p := range []validity.Problem{validity.Weak(5, 2), validity.Strong(5, 2), validity.Broadcast(5, 2, 0)} {
				if !p.CheckCC().Holds {
					failed = len(ids)
				}
			}
			m.set("validity.checkcc_ms", float64(tr.end(sp).Nanoseconds())/1e6)

			// The static-analysis gate over the whole module, as every
			// scripts/lint.sh run pays for it.
			if div == 1 {
				moduleRoot, err := repoRoot()
				if err != nil {
					return len(ids), len(ids), err
				}
				sp = tr.begin("balint.lint_module")
				diags, err := balint.LintModule(moduleRoot)
				m.set("balint.lint_module_s", tr.end(sp).Seconds())
				if err != nil {
					return len(ids), len(ids), err
				}
				if open := analysis.Unsuppressed(diags); len(open) != 0 {
					var lines []string
					for _, d := range open {
						lines = append(lines, fmt.Sprint(d))
					}
					return len(ids), len(ids), fmt.Errorf("balint: %d unsuppressed findings:\n%s", len(open), strings.Join(lines, "\n"))
				}
			}
			return len(ids), failed, nil
		},
	}
}
