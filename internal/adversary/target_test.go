package adversary_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/floodset"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// deviant wraps an honest machine with one of the two defects the
// evidence standard exists to catch: it reports the other bit as its
// decision either for its whole life (flip) or from round fickle on,
// staying awake until then.
type deviant struct {
	sim.Machine
	flip   bool
	fickle int
	round  int
}

func (m *deviant) Step(round int, received []msg.Message) []sim.Outgoing {
	m.round = round
	return m.Machine.Step(round, received)
}

func (m *deviant) Decision() (msg.Value, bool) {
	v, ok := m.Machine.Decision()
	if ok && (m.flip || m.changed()) {
		v = msg.FlipBit(v)
	}
	return v, ok
}

func (m *deviant) Quiescent() bool {
	return m.Machine.Quiescent() && (m.fickle == 0 || m.changed())
}

func (m *deviant) changed() bool { return m.fickle > 0 && m.round >= m.fickle }

// amnesiac builds machines that are not replay-deterministic: every second
// construction of a process flips its decision, so a re-execution never
// agrees with the run it follows. Each trace is a valid execution; only
// conformance can tell.
func amnesiac(honest sim.Factory) sim.Factory {
	var mu sync.Mutex
	built := make(map[proc.ID]int)
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		mu.Lock()
		defer mu.Unlock()
		built[id]++
		return &deviant{Machine: honest(id, proposal), flip: built[id]%2 == 0}
	}
}

// fickle builds deterministic machines that change their decision in
// round `from`, after deciding: they conform to their recording, and the
// recording breaks the Appendix A.1.6 composition guarantee.
func fickle(honest sim.Factory, from int) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &deviant{Machine: honest(id, proposal), fickle: from}
	}
}

// TestReplayRefuses pins the evidence standard on its failing path: what
// Target.Replay holds a trace to, and that each of the five routes to it
// — campaign probes at both tiers, fuzz seed and mutant probes, the
// shrinker, Recheck — hands its refusal back instead of a verdict.
func TestReplayRefuses(t *testing.T) {
	const n, tf = 8, 2
	honest := adversary.Target{
		Protocol: "floodset",
		Factory:  floodset.New(floodset.Config{N: n, T: tf}),
		Rounds:   floodset.RoundBound(tf),
		N:        n,
		T:        tf,
		Validity: validity.WeakCheck,
	}
	env := honest.Env()
	hunt := func(target adversary.Target, full bool) (*adversary.CampaignReport, error) {
		c := &adversary.Campaign{Target: target, Strategy: adversary.TargetedWithhold(),
			Seeds: adversary.SeedRange{From: 0, To: 32}, MaxViolations: 1, RecordFull: full, Parallelism: 1}
		return c.Run()
	}
	rep, err := hunt(honest, false)
	if err != nil || !rep.Broken() {
		t.Fatalf("the honest hunt must find the FloodSet split: %v", err)
	}
	v := rep.Violations[0]
	if _, got, err := honest.Replay(env, v.Plan.Plan(env), v.Proposals); err != nil || got == nil || got.Kind != v.Kind {
		t.Fatalf("the honest target does not replay its own violation: %v, %v", got, err)
	}

	forgetful, changing := honest, honest
	forgetful.Factory = amnesiac(honest.Factory)
	changing.Factory = fickle(honest.Factory, honest.Rounds+1)
	overBudget := adversary.ExplicitPlan{Faulty: []proc.ID{0, 1, 2}}
	for _, tc := range []struct {
		name   string
		target adversary.Target
		plan   *adversary.ExplicitPlan
		want   string
	}{
		{"machines that do not replay", forgetful, v.Plan, "conformance"},
		{"a decision changed after deciding", changing, v.Plan, "invalid trace"},
		{"a plan corrupting more than t", honest, &overBudget, "t=2"},
	} {
		env := tc.target.Env()
		if _, _, err := tc.target.Replay(env, tc.plan.Plan(env), v.Proposals); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Replay with %s: got %v, want a %q error", tc.name, err, tc.want)
		}
	}

	// A verdict the full replay does not reproduce: a validity check that
	// fails every other time it is asked.
	moody, asked := honest, 0
	moody.Validity = func([]msg.Value, proc.Set, msg.Value) error {
		if asked++; asked%2 == 1 {
			return errors.New("moody")
		}
		return nil
	}
	noFaults := func() sim.FaultPlan { return (&adversary.ExplicitPlan{}).Plan(env) }
	if _, _, err := moody.Probe(env, noFaults, make([]msg.Value, n)); err == nil || !strings.Contains(err.Error(), "does not reproduce") {
		t.Errorf("Probe with a lean-only verdict: got %v, want the mismatch error", err)
	}

	// The five routes, against the machines that do not replay.
	refused := func(route, want string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want a %q error", route, err, want)
		}
	}
	_, err = hunt(forgetful, false)
	refused("Campaign.Run, lean tier", "conformance", err)
	_, err = hunt(forgetful, true)
	refused("Campaign.Run, RecordFull", "conformance", err)

	fuzzer := func(target adversary.Target, budget int, corpus *fuzz.Corpus) *fuzz.Fuzzer {
		return &fuzz.Fuzzer{Target: target, Seed: adversary.TargetedWithhold(), Budget: budget, Corpus: corpus, Parallelism: 1}
	}
	_, err = fuzzer(forgetful, 64, nil).Run()
	refused("Fuzzer.Run, seed generation", "seed probe 0: conformance", err)
	// A corpus grown against the honest machines skips the seeding
	// generation; its violating entries' mutants keep violating.
	grown := fuzzer(honest, 32, nil)
	if _, err := grown.Run(); err != nil || grown.Corpus.Size() == 0 {
		t.Fatalf("growing the corpus: %v", err)
	}
	_, err = fuzzer(forgetful, 256, grown.Corpus).Run()
	refused("Fuzzer.Run, mutant generation", "mutant (", err)
	refused("Fuzzer.Run, mutant generation", "conformance", err)

	opts := adversary.ShrinkOptions{Target: forgetful}
	_, err = adversary.Shrink(v, opts)
	refused("Shrink", "does not replay", err)
	refused("Recheck", "recheck: conformance", adversary.Recheck(v, opts))
}
