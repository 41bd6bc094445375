package adversary

import (
	"reflect"
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// runFull runs plan at the full tier under env's protocol.
func runFull(t *testing.T, env Env, proposals []msg.Value, plan sim.FaultPlan) *sim.Execution {
	t.Helper()
	cfg := sim.Config{N: env.N, T: env.T, Proposals: proposals, MaxRounds: env.Horizon}
	e, err := sim.Run(cfg, env.Factory, plan)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExtractRoundTripsTheLibrary holds Extract to its contract on every
// library strategy: the extracted plan, instantiated afresh, replays the
// run it was read from, and extracts to itself. Each Byzantine process's
// spec is read off its machine, so a machine that describes itself wrong
// replays differently.
func TestExtractRoundTripsTheLibrary(t *testing.T) {
	env := testEnv(6, 2)
	strategies := []Strategy{Windowed(TwoFaced(), 2, 3), Biased(TwoFaced(), 50)}
	for _, e := range Library(40) {
		strategies = append(strategies, e.Strategy)
	}
	for _, s := range strategies {
		t.Run(s.Name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				proposals := s.ProposalsFor(seed, env)
				plan := s.Build(seed, env)
				first := runFull(t, env, proposals, plan)
				ep, err := Extract(first, plan)
				if err != nil {
					t.Fatalf("seed %d: extract: %v", seed, err)
				}
				byz := 0
				for _, id := range plan.Faulty().Members() {
					if plan.Byzantine(id) != nil {
						byz++
					}
				}
				if len(ep.Byzantine) != byz {
					t.Fatalf("seed %d: extracted %d machine specs, plan has %d machines", seed, len(ep.Byzantine), byz)
				}
				replay := ep.Plan(env)
				second := runFull(t, env, proposals, replay)
				if !reflect.DeepEqual(first.Behaviors, second.Behaviors) {
					t.Fatalf("seed %d: replay of %v behaves differently", seed, ep)
				}
				again, err := Extract(second, replay)
				if err != nil {
					t.Fatalf("seed %d: extract of the replay: %v", seed, err)
				}
				if !reflect.DeepEqual(ep, again) {
					t.Fatalf("seed %d: replay extracts to %+v, want %+v", seed, again, ep)
				}
			}
		})
	}
}

// TestExtractKeepsDegradedSpecs: a spec that builds a silent machine — an
// unknown kind, or two-faced with no factory to run — still extracts to
// itself, so a corpus written by a newer library round-trips unchanged.
func TestExtractKeepsDegradedSpecs(t *testing.T) {
	env := testEnv(6, 2)
	bare := env
	bare.Factory = nil
	for _, spec := range []MachineSpec{{Kind: "from-the-future", Seed: 3}, {Kind: KindTwoFaced, Seed: 4}} {
		ep := &ExplicitPlan{Faulty: []proc.ID{2}, Byzantine: []ByzEntry{{ID: 2, Spec: spec}}}
		plan := ep.Plan(bare)
		got, err := Extract(runFull(t, env, bits(0, 1, 0, 1, 1, 0), plan), plan)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if !reflect.DeepEqual(got, ep) {
			t.Fatalf("%v: extracted %+v, want %+v", spec, got, ep)
		}
	}
}

// TestExtractRefusesForeignMachines: a machine built outside the library
// has no spec to replay it by.
func TestExtractRefusesForeignMachines(t *testing.T) {
	env := testEnv(6, 2)
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{1: sim.Silent{}}}
	_, err := Extract(runFull(t, env, bits(0, 1, 0, 1, 1, 0), plan), plan)
	if err == nil || !strings.Contains(err.Error(), "no replayable spec") {
		t.Fatalf("extract of a foreign machine: got error %v, want no replayable spec", err)
	}
}
