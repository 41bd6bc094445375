// Package experiments regenerates every table and figure of the paper's
// argument as runnable experiments E1–E12. Each experiment is registered
// by ID, with a title naming the result it reproduces and its default
// parameters, in the runner registry (see register.go, and README.md,
// "The experiment engine"); cmd/baexp runs them through the parallel
// engine, testdata/tables.jsonl pins the cheap ones' tables, and the
// benchmark's paper-tables workload times each one.
package experiments

import (
	"fmt"

	"expensive/internal/experiments/runner"
	"expensive/internal/sim"
)

// Table is a rendered experiment result: structured rows plus notes. It
// lives in the runner package (the engine needs it without importing the
// experiments themselves); this alias keeps the historical name.
type Table = runner.Table

// leanRun runs cfg at the lean tier: the experiments that call it read
// only decisions, decision rounds and message counts.
func leanRun(cfg sim.Config, factory sim.Factory, plan sim.FaultPlan) (*sim.Execution, error) {
	cfg.Recording = sim.RecordDecisions
	return sim.Run(cfg, factory, plan)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
