package adversary

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// Target is the protocol under test: what a Campaign, a fuzz.Fuzzer and
// the shrinker all need to know about it, declared once and embedded by
// each. It owns the evidence pipeline — Probe, Evidence, Replay — so the
// standard a reported counterexample is held to is written in one place.
type Target struct {
	// Protocol names the target for reports and error text.
	Protocol string
	// Factory builds the target's honest machines; Rounds is its
	// decision-round bound. Both are required.
	Factory sim.Factory
	Rounds  int
	N, T    int
	// Horizon overrides the probe execution length (default sim.Horizon(Rounds)).
	Horizon int
	// Validity is the optional validity property checked after Termination
	// and Agreement. The shrinker keeps it when it reduces n, so it must
	// judge a run at the run's own size, as validity.AdmissibleCheck does.
	Validity validity.Check
	// Agreement optionally replaces strict equal-decision Agreement with a
	// pairwise compatibility relation (graded broadcast).
	Agreement validity.Compat
	// New optionally rebuilds the protocol at a different system size,
	// enabling the shrinker to reduce n. Returning an error refuses a size.
	New func(n, t int) (sim.Factory, int, error)
}

// Err reports the first required field — factory, round bound, system
// size — that is missing or out of range.
func (t *Target) Err() error {
	switch {
	case t.Factory == nil:
		return fmt.Errorf("nil factory")
	case t.Rounds <= 0:
		return fmt.Errorf("round bound must be positive, got %d", t.Rounds)
	case t.N < 2 || t.T < 1 || t.T >= t.N:
		return fmt.Errorf("need n >= 2 and 1 <= t < n, got n=%d t=%d", t.N, t.T)
	}
	return nil
}

// Env resolves the probe environment strategies build plans for; an unset
// horizon defaults to sim.Horizon of the round bound.
func (t *Target) Env() Env {
	horizon := t.Horizon
	if horizon <= 0 {
		horizon = sim.Horizon(t.Rounds)
	}
	return Env{N: t.N, T: t.T, Rounds: t.Rounds, Horizon: horizon, Factory: t.Factory}
}

// Replay runs the plan at sim.RecordFull and holds the trace to the
// evidence standard, omission.Certify (Byzantine replacements skipped),
// before reading the verdict (nil when every property holds) off it. An
// error is a harness failure: an engine or protocol-determinism bug,
// never a protocol-property violation. The plan must be freshly built:
// Byzantine machines are stateful.
func (t *Target) Replay(env Env, plan sim.FaultPlan, proposals []msg.Value) (*sim.Trace, *Violation, error) {
	cfg := sim.Config{N: env.N, T: env.T, Proposals: proposals, MaxRounds: env.Horizon, Recording: sim.RecordFull}
	run, err := sim.Run(cfg, env.Factory, plan)
	if err != nil {
		return nil, nil, err
	}
	e, err := run.Trace()
	if err != nil {
		return nil, nil, err
	}
	if err := omission.Certify(e, env.Factory, ByzantineSkip(plan, e.Faulty)); err != nil {
		return nil, nil, err
	}
	v := CheckExecution(run, proposals, t.Validity, t.Agreement)
	if v != nil {
		v.Proposals = proposals
	}
	return e, v, nil
}

// Evidence is Replay plus the materialized plan the trace exercised, for
// replaying, mutating and shrinking; the plan is also attached to the
// violation. Foreign Byzantine machines are the only non-replayable case:
// the plan is then nil and the violation is reported without one.
func (t *Target) Evidence(env Env, plan sim.FaultPlan, proposals []msg.Value) (*sim.Trace, *ExplicitPlan, *Violation, error) {
	e, v, err := t.Replay(env, plan, proposals)
	if err != nil {
		return nil, nil, nil, err
	}
	ep, _ := Extract(e.Execution, plan)
	if v != nil {
		v.Plan = ep
	}
	return e, ep, v, nil
}

// Probe runs one plan at the lean sim.RecordDecisions tier — enough to
// read decisions, rounds and message counts — and returns that execution.
// Only a probe whose verdict is a violation pays for Evidence, on a second
// plan from build; the engine is deterministic, so the full replay must
// reproduce the lean verdict exactly.
func (t *Target) Probe(env Env, build func() sim.FaultPlan, proposals []msg.Value) (*sim.Execution, *Violation, error) {
	cfg := sim.Config{N: env.N, T: env.T, Proposals: proposals, MaxRounds: env.Horizon, Recording: sim.RecordDecisions}
	e, err := sim.Run(cfg, env.Factory, build())
	if err != nil {
		return nil, nil, err
	}
	lean := CheckExecution(e, proposals, t.Validity, t.Agreement)
	if lean == nil {
		return e, nil, nil
	}
	_, _, full, err := t.Evidence(env, build(), proposals)
	if err != nil {
		return nil, nil, err
	}
	if !sameVerdict(full, lean) {
		return nil, nil, fmt.Errorf("full replay does not reproduce the lean probe's %s violation — engine or protocol nondeterminism", lean.Kind)
	}
	return e, full, nil
}

// sameVerdict reports whether a replay reproduced a recorded violation:
// same kind, same witnesses, same decisions.
func sameVerdict(got, want *Violation) bool {
	return got != nil && got.Kind == want.Kind &&
		got.Witness1 == want.Witness1 && got.D1 == want.D1 &&
		got.Witness2 == want.Witness2 && got.D2 == want.D2
}

// ShrinkAll minimizes every replayable violation in place. A violation
// without a plan (foreign Byzantine machines) is left unshrunk.
func ShrinkAll(violations []*Violation, opts ShrinkOptions) error {
	for _, v := range violations {
		if v.Plan == nil {
			continue
		}
		sh, err := Shrink(v, opts)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", opts.Protocol, v.Seed, err)
		}
		v.Shrunk = sh
	}
	return nil
}
