package omission_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // register every protocol
	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
	"expensive/internal/sim"
)

// TestMergeReplaysSources holds Merge to what Algorithm 5 builds by hand:
// every process of B (resp. C) sends and decides, round by round, exactly
// what it sent and decided in E_B(k_B) (resp. E_C(k_C)), and past the
// source's recorded end it is silent and keeps its final decision. It runs
// every catalog protocol that builds at n=17 t=4 — but eig and weak-eig,
// whose trees hold 8·10^5 nodes a process there — and the four cheap
// candidates, at both proposals, every k_B within the horizon and
// k_C ∈ {k_B−1, k_B, k_B+1}. Each merged execution must also conform to the
// protocol's machines and last exactly the horizon.
func TestMergeReplaysSources(t *testing.T) {
	const n, tf = 17, 4
	type target struct {
		id      string
		factory sim.Factory
		rounds  int
	}
	targets := []target{
		{"cheap-silent", cheap.Silent(), cheap.SilentRounds},
		{"cheap-leader", cheap.Leader(n), cheap.LeaderRounds},
		{"cheap-star", cheap.Star(n), cheap.StarRounds},
		{"cheap-gossip", cheap.Gossip(n, 3), cheap.GossipRounds},
	}
	for _, spec := range catalog.Protocols() {
		if !spec.SupportedAt(n, tf) || spec.ID == "eig" || spec.ID == "weak-eig" {
			continue
		}
		f, rounds, err := spec.Build(catalog.DefaultParams(n, tf))
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		targets = append(targets, target{spec.ID, f, rounds})
	}
	part, err := proc.NewPartition(n, tf)
	if err != nil {
		t.Fatal(err)
	}

	merges := 0
	for _, tg := range targets {
		h := sim.Horizon(tg.rounds)
		for _, prop := range []msg.Value{msg.Zero, msg.One} {
			// eB[k] is E_B(k)_prop, eC[k] is E_C(k)_prop; index 0 is unused.
			eB := make([]*sim.Execution, h+1)
			eC := make([]*sim.Execution, h+1)
			for k := 1; k <= h; k++ {
				if eB[k], err = omission.RunIsolated(n, tf, tg.factory, prop, part.B, k, h); err != nil {
					t.Fatalf("%s: E_B(%d)_%s: %v", tg.id, k, prop, err)
				}
				if eC[k], err = omission.RunIsolated(n, tf, tg.factory, prop, part.C, k, h); err != nil {
					t.Fatalf("%s: E_C(%d)_%s: %v", tg.id, k, prop, err)
				}
			}
			for kB := 1; kB <= h; kB++ {
				for kC := max(kB-1, 1); kC <= min(kB+1, h); kC++ {
					name := tg.id + "/" + string(prop)
					merged, err := omission.Merge(omission.MergeSpec{Part: part, EB: eB[kB], KB: kB, EC: eC[kC], KC: kC}, tg.factory, h)
					if err != nil {
						t.Errorf("%s kB=%d kC=%d: %v", name, kB, kC, err)
						continue
					}
					merges++
					if merged.Rounds != h {
						t.Errorf("%s kB=%d kC=%d: %d rounds, want the horizon %d", name, kB, kC, merged.Rounds, h)
					}
					if err := sim.Conforms(merged, tg.factory, proc.Set{}); err != nil {
						t.Errorf("%s kB=%d kC=%d: Conforms: %v", name, kB, kC, err)
					}
					for _, g := range []struct {
						set proc.Set
						src *sim.Execution
					}{{part.B, eB[kB]}, {part.C, eC[kC]}} {
						for _, id := range g.set.Members() {
							if err := replays(merged.Behavior(id), g.src.Behavior(id), h); err != nil {
								t.Errorf("%s kB=%d kC=%d: %s %s", name, kB, kC, id, err)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d protocols, %d merged executions", len(targets), merges)
}

// replays reports how b, a process's behavior in a merged execution of h
// rounds, departs from src, its behavior in the source execution, or nil
// when it sends and decides what Algorithm 5 replays.
func replays(b, src *sim.Behavior, h int) error {
	final, finalOK := src.FinalDecision()
	for r := 1; r <= h; r++ {
		f, s := b.Frag(r), src.Frag(r)
		if r > len(src.Fragments) {
			s.Decided, s.Decision = finalOK, final
		}
		switch {
		case !slices.Equal(f.Sent, s.Sent):
			return fmt.Errorf("sends %v in round %d, its source %v", f.Sent, r, s.Sent)
		case len(f.SendOmitted) > 0:
			return fmt.Errorf("send-omits %v in round %d", f.SendOmitted, r)
		case f.Decided != s.Decided || f.Decision != s.Decision:
			return fmt.Errorf("decision (%q,%v) in round %d, its source (%q,%v)", f.Decision, f.Decided, r, s.Decision, s.Decided)
		}
	}
	return nil
}

// TestIsolatingNobodyIsFaultFree pins the identity the falsifier's step 1
// rests on: E_∅(1)_v, the isolation execution with an empty group, is the
// fully-correct run with unanimous proposal v. Both tiers must agree on
// rounds, decisions, per-round counts and correct messages, and at
// RecordFull on every fragment.
func TestIsolatingNobodyIsFaultFree(t *testing.T) {
	for _, c := range []struct {
		id    string
		n, tf int
	}{{"floodset", 8, 3}, {"phase-king", 9, 2}} {
		spec, ok := catalog.Lookup(c.id)
		if !ok {
			t.Fatalf("%s is not registered", c.id)
		}
		f, rounds, err := spec.Build(catalog.DefaultParams(c.n, c.tf))
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		h := sim.Horizon(rounds)
		for _, rec := range []sim.Recording{sim.RecordDecisions, sim.RecordFull} {
			for _, v := range []msg.Value{msg.Zero, msg.One} {
				name := fmt.Sprintf("%s/rec=%d/v=%s", c.id, rec, v)
				iso, err := omission.RunIsolatedAt(c.n, c.tf, f, v, proc.Set{}, 1, h, rec)
				if err != nil {
					t.Fatalf("%s: isolated: %v", name, err)
				}
				cfg := sim.Config{N: c.n, T: c.tf, Proposals: msg.Uniform(c.n, v), MaxRounds: h, Recording: rec}
				free, err := sim.Run(cfg, f, sim.NoFaults{})
				if err != nil {
					t.Fatalf("%s: fault-free: %v", name, err)
				}
				if iso.Rounds != free.Rounds || iso.CorrectMessages() != free.CorrectMessages() {
					t.Fatalf("%s: isolated ran %d rounds, %d correct messages; fault-free %d, %d",
						name, iso.Rounds, iso.CorrectMessages(), free.Rounds, free.CorrectMessages())
				}
				for i := 0; i < c.n; i++ {
					id := proc.ID(i)
					di, oki := iso.Decision(id)
					df, okf := free.Decision(id)
					if di != df || oki != okf {
						t.Fatalf("%s: %s decides (%q, %v) isolated, (%q, %v) fault-free", name, id, di, oki, df, okf)
					}
					bi, bf := iso.Behavior(id), free.Behavior(id)
					for r := 1; r <= iso.Rounds; r++ {
						var ci, cf [4]int
						ci[0], ci[1], ci[2], ci[3] = bi.Counts(r)
						cf[0], cf[1], cf[2], cf[3] = bf.Counts(r)
						if ci != cf {
							t.Fatalf("%s: %s round %d counts %v isolated, %v fault-free", name, id, r, ci, cf)
						}
					}
					if rec == sim.RecordFull && !reflect.DeepEqual(bi.Fragments, bf.Fragments) {
						t.Fatalf("%s: %s fragments differ", name, id)
					}
				}
			}
		}
	}
}
