package catalog_test

import (
	"reflect"
	"slices"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
	"expensive/internal/sim"
	"expensive/internal/transport"
	"expensive/internal/transport/memnet"
)

// lendTarget is a protocol the lending test runs: every catalog entry and
// the four cheap candidates, which the catalog does not hold.
type lendTarget struct {
	id string
	// build returns the factory and round bound at (n, t); ok is false at
	// a size the protocol does not run at.
	build func(n, t int) (f sim.Factory, rounds int, ok bool)
}

func lendTargets(t *testing.T) []lendTarget {
	var out []lendTarget
	for _, spec := range catalog.Protocols() {
		spec := spec // go.mod says go 1.21: one variable for the whole loop
		out = append(out, lendTarget{spec.ID, func(n, tf int) (sim.Factory, int, bool) {
			if !spec.SupportedAt(n, tf) {
				return nil, 0, false
			}
			f, rounds, err := spec.Build(catalog.DefaultParams(n, tf))
			if err != nil {
				t.Fatalf("%s at n=%d t=%d: %v", spec.ID, n, tf, err)
			}
			return f, rounds, true
		}})
	}
	return append(out,
		lendTarget{"cheap-silent", func(int, int) (sim.Factory, int, bool) { return cheap.Silent(), cheap.SilentRounds, true }},
		lendTarget{"cheap-leader", func(n, _ int) (sim.Factory, int, bool) { return cheap.Leader(n), cheap.LeaderRounds, true }},
		lendTarget{"cheap-star", func(n, _ int) (sim.Factory, int, bool) { return cheap.Star(n), cheap.StarRounds, true }},
		lendTarget{"cheap-gossip", func(n, _ int) (sim.Factory, int, bool) { return cheap.Gossip(n, 3), cheap.GossipRounds, true }},
	)
}

// given wraps a factory so that every slice its machines return is a
// fresh copy: given, not lent. A driver that keeps a slice across the
// machine's next step sees what it was handed with this factory and what
// the machine has since written over it with the plain one.
func given(f sim.Factory) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine { return givenMachine{f(id, proposal)} }
}

type givenMachine struct{ sim.Machine }

func (g givenMachine) Init() []sim.Outgoing {
	return append([]sim.Outgoing(nil), g.Machine.Init()...)
}

func (g givenMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	return append([]sim.Outgoing(nil), g.Machine.Step(round, received)...)
}

// TestOutgoingIsOnlyLentCatalogWide holds both sides of the rule stated
// on sim.Broadcast for every protocol there is, with no second
// implementation of any: the drivers' side — the engine at both tiers,
// sim.Conforms, adversary's two-faced twin, omission.Merge's live replay
// and transport.RunNode each produce with lent slices exactly what they
// produce with given ones — and the machines' side — a step never
// readdresses the slice the machine lent before, never writes into another
// machine's, and never changes a decision once made.
func TestOutgoingIsOnlyLentCatalogWide(t *testing.T) {
	for _, target := range lendTargets(t) {
		t.Run(target.id, func(t *testing.T) {
			n, tf := 9, 2
			factory, rounds, ok := target.build(n, tf)
			if !ok {
				n, tf = 5, 1
				if factory, rounds, ok = target.build(n, tf); !ok {
					t.Fatalf("runs at neither n=9 t=2 nor n=5 t=1")
				}
			}
			horizon := sim.Horizon(rounds)
			// p0 alone proposes the smallest value, and lentMachines holds it
			// back until the last round: a machine that decides early and
			// then learns it is tempted to decide again.
			proposals := msg.Uniform(n, msg.One)
			proposals[0] = msg.Zero
			same := func(what string, lent, given any) {
				t.Helper()
				if !reflect.DeepEqual(lent, given) {
					t.Errorf("%s: differs between lent and given slices", what)
				}
			}
			run := func(f sim.Factory, rec sim.Recording, plan sim.FaultPlan) *sim.Execution {
				t.Helper()
				e, err := sim.Run(sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: horizon, Recording: rec}, f, plan)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}

			lentMachines(t, factory, n, rounds, proposals)

			for name, plan := range map[string]sim.FaultPlan{
				"no-faults": sim.NoFaults{},
				"isolation": omission.Isolation(proc.Range(0, proc.ID(tf)), 2),
			} {
				for _, rec := range []sim.Recording{sim.RecordFull, sim.RecordDecisions} {
					same("engine, "+name+" at "+rec.String(), run(factory, rec, plan), run(given(factory), rec, plan))
				}
				for _, f := range []sim.Factory{factory, given(factory)} {
					if err := sim.Conforms(run(f, sim.RecordFull, plan), factory, proc.Set{}); err != nil {
						t.Errorf("%s: Conforms: %v", name, err)
					}
				}
			}

			for seed := int64(1); seed <= 4; seed++ {
				twin := func(f sim.Factory) *sim.Execution {
					env := adversary.Env{N: n, T: tf, Rounds: rounds, Horizon: horizon, Factory: f}
					return run(f, sim.RecordFull, adversary.TwoFaced().Build(seed, env))
				}
				same("two-faced twin", twin(factory), twin(given(factory)))
			}

			cluster := func(f sim.Factory) []transport.NodeResult {
				eps := memnet.New(n, nil).Endpoints()
				defer eps[0].Close() // closing one endpoint closes the mesh
				res, err := transport.Cluster{N: n, Endpoints: eps, Factory: f, Proposals: proposals, Rounds: rounds}.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			same("RunNode", cluster(factory), cluster(given(factory)))

			// Merge needs groups of t/4, so t >= 4. EIG's tree has 8·10^5
			// nodes a process there; the derived protocols stop at n = 5.
			big, bigRounds, ok := target.build(17, 4)
			if !ok || target.id == "eig" || target.id == "weak-eig" {
				return
			}
			part, err := proc.NewPartition(17, 4)
			if err != nil {
				t.Fatal(err)
			}
			h := sim.Horizon(bigRounds)
			merge := func(f sim.Factory) *sim.Execution {
				eB, err := omission.RunIsolated(17, 4, f, msg.One, part.B, 1, h)
				if err != nil {
					t.Fatal(err)
				}
				eC, err := omission.RunIsolated(17, 4, f, msg.One, part.C, 2, h)
				if err != nil {
					t.Fatal(err)
				}
				merged, err := omission.Merge(omission.MergeSpec{Part: part, EB: eB, KB: 1, EC: eC, KC: 2}, f, h)
				if err != nil {
					t.Fatal(err)
				}
				return merged.Execution
			}
			same("Merge", merge(big), merge(given(big)))
		})
	}
}

// lentMachines runs the protocol by hand, holding every slice a machine
// returned, and checks after each step what the step may not have touched.
// It routes what each machine sent expanded per peer (sim.Expand). p0's
// messages are withheld until the last round.
func lentMachines(t *testing.T, factory sim.Factory, n, rounds int, proposals []msg.Value) {
	t.Helper()
	machines := make([]sim.Machine, n)
	held := make([][]sim.Outgoing, n) // what each machine returned last
	was := make([][]sim.Outgoing, n)  // and a copy taken when it did
	decided := make([]*msg.Value, n)
	for i := range machines {
		machines[i] = factory(proc.ID(i), proposals[i])
		held[i] = machines[i].Init()
		was[i] = slices.Clone(held[i])
	}
	for round := 1; round <= rounds; round++ {
		inboxes := make([][]msg.Message, n)
		for from, out := range was {
			for _, o := range sim.Expand(nil, out, n, proc.ID(from)) {
				if from != 0 || round == rounds {
					inboxes[o.To] = append(inboxes[o.To], msg.Message{Sender: proc.ID(from), Receiver: o.To, Round: round, Payload: o.Payload})
				}
			}
		}
		for i, m := range machines {
			out := m.Step(round, inboxes[i])
			for k := range held[i] {
				if held[i][k].To != was[i][k].To {
					t.Fatalf("p%d round %d: the slice lent before is readdressed, entry %d %s → %s", i, round, k, was[i][k].To, held[i][k].To)
				}
			}
			for j := range machines {
				if j != i && !slices.Equal(held[j], was[j]) {
					t.Fatalf("p%d round %d: the step wrote into p%d's slice", i, round, j)
				}
			}
			held[i], was[i] = out, slices.Clone(out)
			switch v, ok := m.Decision(); {
			case decided[i] != nil && (!ok || v != *decided[i]):
				t.Fatalf("p%d round %d: decided %q, now reads (%q, %v)", i, round, *decided[i], v, ok)
			case ok:
				decided[i] = &v
			}
		}
	}
}
