package phaseking

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/transport"
	"expensive/internal/transport/memnet"
)

// hostileBodies are what a Byzantine sender may put on the wire: the two
// honest payloads, the same bits spelled so that the string match misses
// and the JSON decoder must run, non-binary values, and bytes that are not
// a payload at all.
var hostileBodies = []string{
	bodyZero, bodyOne,
	`{"V": "0"}`, ` {"V":"1"} `, `{"V":"1","W":2}`,
	`{"V":"2"}`, `{"V":""}`, `{"V":"⊥"}`, `{"V":"01"}`, `{}`,
	``, `{`, `[]`, `null`, `{"V":1}`, `{"V":"0"`, "\xff",
}

// hostileInbox is one round's inbox for process id. Most senders say a
// bit, the rest draw from hostileBodies; some stay silent, some appear
// twice with two payloads (the engine never delivers that, a foreign
// driver might), and in a king round everyone may speak — the king once,
// twice or not at all, and others in its place. extra, when non-empty,
// replaces one sender's payload.
func hostileInbox(r *rand.Rand, n, round int, id proc.ID, extra string) []msg.Message {
	body := func() string {
		if r.Intn(3) > 0 {
			return hostileBodies[r.Intn(2)]
		}
		return hostileBodies[r.Intn(len(hostileBodies))]
	}
	var inbox []msg.Message
	replaced := proc.ID(r.Intn(n))
	for s := proc.ID(0); s < proc.ID(n); s++ {
		if s == id || r.Intn(5) == 0 {
			continue
		}
		m := msg.Message{Sender: s, Receiver: id, Round: round, Payload: body()}
		if s == replaced && extra != "" {
			m.Payload = extra
		}
		inbox = append(inbox, m)
		if r.Intn(6) == 0 {
			m.Payload = body()
			inbox = append(inbox, m)
		}
	}
	return inbox
}

// matchReference drives the reference machine and the product machine of
// one process through Init and every round up to two past the decision on
// identical hostile inboxes and requires identical outgoing messages,
// decisions and quiescence after every call. The product's slice is
// compared before the next Step, which is all it is lent for.
func matchReference(t *testing.T, cfg Config, id proc.ID, seed int64, extra string) {
	t.Helper()
	proposal := []msg.Value{msg.Zero, msg.One, "2", ""}[uint64(seed)%4]
	ref, got := refNew(cfg)(id, proposal), New(cfg)(id, proposal)
	compare := func(round int, want, have []sim.Outgoing) {
		t.Helper()
		if (want == nil) != (have == nil) || !slices.Equal(want, have) {
			t.Fatalf("%+v id=%d seed=%d round %d: sends\n%q\nreference sends\n%q", cfg, id, seed, round, have, want)
		}
		wd, wok := ref.Decision()
		hd, hok := got.Decision()
		if wd != hd || wok != hok || ref.Quiescent() != got.Quiescent() {
			t.Fatalf("%+v id=%d seed=%d round %d: decision %q/%t quiescent %t, reference %q/%t quiescent %t",
				cfg, id, seed, round, hd, hok, got.Quiescent(), wd, wok, ref.Quiescent())
		}
	}
	compare(0, ref.Init(), got.Init())
	r := rand.New(rand.NewSource(seed))
	for round := 1; round <= 2*cfg.phases()+2; round++ {
		inbox := hostileInbox(r, cfg.N, round, id, extra)
		compare(round, ref.Step(round, slices.Clone(inbox)), got.Step(round, inbox))
	}
}

func TestPhaseKingMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{N: 2, T: 0}, {N: 5, T: 1}, {N: 9, T: 2}, {N: 13, T: 3}, {N: 4, T: 1},
		{N: 5, T: 1, PhasesOverride: 1}, {N: 9, T: 2, PhasesOverride: 5},
	} {
		for seed := int64(0); seed < 200; seed++ {
			matchReference(t, cfg, proc.ID(seed%int64(cfg.N)), seed, "")
		}
	}
}

func FuzzPhaseKingMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), uint8(0), int64(1), `{"V":"1"}`)
	f.Add(uint8(7), uint8(2), uint8(1), uint8(3), int64(9), `{"V":"2"}`)
	f.Fuzz(func(t *testing.T, n, tf, id, phases uint8, seed int64, extra string) {
		n = 2 + n%12
		cfg := Config{N: int(n), T: int(tf % n), PhasesOverride: int(phases % 6)}
		matchReference(t, cfg, proc.ID(id%n), seed, extra)
	})
}

// TestOutgoingIsOnlyLent pins both sides of the ownership rule. The
// machine's side: the slice Step k returned is, after Step k+1, the same
// receivers in the same order — only payloads are rewritten — and a
// machine never writes into another machine's slice. The drivers' side:
// every driver that steps a machine it still holds a slice of (the engine
// at both tiers, sim.Conforms, adversary's two-faced twin over two copies,
// omission.Merge's live replay, transport.RunNode) produces with this
// machine exactly what it produces with the reference, whose slices are
// never touched again.
func TestOutgoingIsOnlyLent(t *testing.T) {
	cfg := Config{N: 9, T: 2}
	factory, reference := New(cfg), refNew(cfg)

	t.Run("step rewrites payloads only", func(t *testing.T) {
		r := rand.New(rand.NewSource(7))
		for id := proc.ID(0); id < proc.ID(cfg.N); id++ {
			m, twin := factory(id, msg.One), factory(id, msg.Zero)
			held, twinHeld := m.Init(), twin.Init()
			receivers := slices.Clone(held)
			twinWas := slices.Clone(twinHeld)
			for round := 1; round <= RoundBound(cfg.T); round++ {
				m.Step(round, hostileInbox(r, cfg.N, round, id, ""))
				if len(held) != len(receivers) {
					t.Fatalf("p%d round %d: lent slice changed length %d → %d", id, round, len(receivers), len(held))
				}
				for i := range held {
					if held[i].To != receivers[i].To {
						t.Fatalf("p%d round %d: lent slice entry %d readdressed %s → %s", id, round, i, receivers[i].To, held[i].To)
					}
				}
				if !slices.Equal(twinHeld, twinWas) {
					t.Fatalf("p%d round %d: stepping one machine rewrote another machine's slice", id, round)
				}
			}
		}
	})

	proposals := make([]msg.Value, cfg.N)
	for i := range proposals {
		proposals[i] = msg.Bit(i % 2)
	}
	horizon := sim.Horizon(RoundBound(cfg.T))
	run := func(t *testing.T, f sim.Factory, rec sim.Recording, plan sim.FaultPlan) *sim.Execution {
		t.Helper()
		e, err := sim.Run(sim.Config{N: cfg.N, T: cfg.T, Proposals: proposals, MaxRounds: horizon, Recording: rec}, f, plan)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	same := func(t *testing.T, what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: differs from what the reference machine yields", what)
		}
	}

	t.Run("engine and Conforms", func(t *testing.T) {
		plans := map[string]sim.FaultPlan{
			"no-faults": sim.NoFaults{},
			"omission":  omission.Isolation(proc.NewSet(0, 4), 2),
		}
		for name, plan := range plans {
			for _, rec := range []sim.Recording{sim.RecordFull, sim.RecordDecisions} {
				same(t, name+" at "+rec.String(), run(t, factory, rec, plan), run(t, reference, rec, plan))
			}
			e := run(t, factory, sim.RecordFull, plan)
			if err := sim.Conforms(e, factory, proc.Set{}); err != nil {
				t.Errorf("%s: Conforms: %v", name, err)
			}
			if err := sim.Conforms(e, reference, proc.Set{}); err != nil {
				t.Errorf("%s: Conforms against the reference machine: %v", name, err)
			}
		}
	})

	t.Run("two-faced twin", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			env := func(f sim.Factory) adversary.Env {
				return adversary.Env{N: cfg.N, T: cfg.T, Rounds: RoundBound(cfg.T), Horizon: horizon, Factory: f}
			}
			got := run(t, factory, sim.RecordFull, adversary.TwoFaced().Build(seed, env(factory)))
			want := run(t, reference, sim.RecordFull, adversary.TwoFaced().Build(seed, env(reference)))
			if got.Faulty.Empty() {
				t.Fatalf("seed %d: the two-faced plan corrupts nobody", seed)
			}
			same(t, "two-faced", got, want)
		}
	})

	t.Run("Merge", func(t *testing.T) {
		big := Config{N: 17, T: 4}
		part, err := proc.NewPartition(big.N, big.T)
		if err != nil {
			t.Fatal(err)
		}
		h := sim.Horizon(RoundBound(big.T))
		merge := func(f sim.Factory) *sim.Execution {
			eB, err := omission.RunIsolated(big.N, big.T, f, msg.One, part.B, 3, h)
			if err != nil {
				t.Fatal(err)
			}
			eC, err := omission.RunIsolated(big.N, big.T, f, msg.One, part.C, 4, h)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := omission.Merge(omission.MergeSpec{Part: part, EB: eB, KB: 3, EC: eC, KC: 4}, f, h)
			if err != nil {
				t.Fatal(err)
			}
			return merged
		}
		same(t, "merged execution", merge(New(big)), merge(refNew(big)))
	})

	t.Run("RunNode", func(t *testing.T) {
		cluster := func(f sim.Factory) []transport.NodeResult {
			eps := memnet.New(cfg.N, nil).Endpoints()
			defer eps[0].Close() // closing one endpoint closes the mesh
			res, err := transport.Cluster{N: cfg.N, Endpoints: eps, Factory: f, Proposals: proposals, Rounds: RoundBound(cfg.T)}.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got := cluster(factory)
		same(t, "node results", got, cluster(reference))
		if _, err := transport.CommonDecision(got, proc.Universe(cfg.N)); err != nil {
			t.Error(err)
		}
	})
}
