package adversary

import (
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/floodset"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// handmadeFloodSetViolation replays the E10 last-round-reveal attack as an
// explicit plan (attacker 0 withholds its unique minimum from everyone but
// victim 1 until the decision round) and wraps the resulting split as a
// Violation, exactly as a campaign probe would.
func handmadeFloodSetViolation(t *testing.T, n, tf int) (*Violation, ShrinkOptions) {
	t.Helper()
	rounds := floodset.RoundBound(tf)
	factory := floodset.New(floodset.Config{N: n, T: tf})
	horizon := rounds + 2

	plan := &ExplicitPlan{Faulty: []proc.ID{0}}
	for r := 1; r <= rounds; r++ {
		for p := 1; p < n; p++ {
			if r == rounds && p == 1 {
				continue // the last-round reveal to the victim
			}
			plan.SendOmit = append(plan.SendOmit, msg.Key{Sender: 0, Receiver: proc.ID(p), Round: r})
		}
	}
	proposals := make([]msg.Value, n)
	proposals[0] = msg.Zero
	for i := 1; i < n; i++ {
		proposals[i] = msg.One
	}

	env := Env{N: n, T: tf, Rounds: rounds, Horizon: horizon, Factory: factory}
	e, err := sim.Run(sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: horizon}, factory, plan.Plan(env))
	if err != nil {
		t.Fatal(err)
	}
	v := CheckExecution(e, proposals, validity.WeakCheck, nil)
	if v == nil || v.Kind != "agreement" {
		t.Fatalf("handmade attack did not split FloodSet (violation: %v)", v)
	}
	v.Seed = -1
	v.Proposals = proposals
	v.Plan = plan
	opts := ShrinkOptions{
		Target: Target{
			Factory: factory,
			Rounds:  rounds,
			N:       n,
			T:       tf,
			Horizon: horizon,
			New: func(n, t int) (sim.Factory, int, error) {
				return floodset.New(floodset.Config{N: n, T: t}), floodset.RoundBound(t), nil
			},
			Validity: validity.WeakCheck,
		},
	}
	return v, opts
}

// TestShrinkReducesN shrinks the handmade n=8 counterexample down to the
// three processes the split actually needs: attacker, victim, bystander.
func TestShrinkReducesN(t *testing.T) {
	v, opts := handmadeFloodSetViolation(t, 8, 2)
	sh, err := Shrink(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sh.N != 3 {
		t.Errorf("shrunk to n=%d, want 3 (attacker+victim+bystander)", sh.N)
	}
	if sh.FaultyAfter != 1 {
		t.Errorf("shrunk to %d faulty, want 1", sh.FaultyAfter)
	}
	if sh.Kind != "agreement" {
		t.Errorf("shrunk violation kind %q, want agreement", sh.Kind)
	}
	if sh.OmitAfter >= sh.OmitBefore {
		t.Errorf("omissions not reduced: %d -> %d", sh.OmitBefore, sh.OmitAfter)
	}
	v.Shrunk = sh
	if err := Recheck(v, opts); err != nil {
		t.Fatalf("recheck of shrunk certificate: %v", err)
	}
}

// TestShrinkWithoutNReduction pins the element-only path: with no New
// constructor the system size stays put but omissions still minimize.
func TestShrinkWithoutNReduction(t *testing.T) {
	v, opts := handmadeFloodSetViolation(t, 8, 2)
	opts.New = nil
	sh, err := Shrink(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sh.N != 8 {
		t.Errorf("n changed to %d without a constructor", sh.N)
	}
	if sh.OmitAfter >= sh.OmitBefore {
		t.Errorf("omissions not reduced: %d -> %d", sh.OmitBefore, sh.OmitAfter)
	}
	if err := Recheck(v, opts); err != nil {
		t.Fatalf("recheck of found certificate: %v", err)
	}
}

// TestShrinkRederivesHorizon pins the horizon against staleness: when New
// rebuilds the protocol at a smaller n with a smaller round bound, a
// defaulted horizon must be re-derived as rounds+2 from the new bound —
// never kept from the original, larger-rounds protocol. (The shrinker
// preserves the Horizon-Rounds slack across rebuilds, which re-derives
// the rounds+2 default as a special case; this test keeps any future
// rewrite honest.)
func TestShrinkRederivesHorizon(t *testing.T) {
	// A rounds bound that tracks n (max(t+1, n-1)), so shrinking n shrinks
	// the round bound too. FloodSet itself only needs t+1 rounds, so the
	// inflated bound is sound — the extra rounds are silent.
	rebuild := func(n, tf int) (sim.Factory, int, error) {
		r := floodset.RoundBound(tf)
		if n-1 > r {
			r = n - 1
		}
		return floodset.New(floodset.Config{N: n, T: tf}), r, nil
	}
	v, opts := handmadeFloodSetViolation(t, 8, 2)
	factory, rounds, err := rebuild(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts.Factory, opts.Rounds, opts.New = factory, rounds, rebuild
	opts.Horizon = 0 // defaulted: Shrink derives rounds+2 and must keep re-deriving
	sh, err := Shrink(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sh.N >= 8 {
		t.Fatalf("n did not shrink (n=%d): the rounds-reduction path was not exercised", sh.N)
	}
	if sh.Rounds >= rounds {
		t.Fatalf("round bound did not shrink with n: %d -> %d", rounds, sh.Rounds)
	}
	if sh.Horizon != sh.Rounds+2 {
		t.Errorf("stale horizon: got %d at round bound %d, want the re-derived default %d",
			sh.Horizon, sh.Rounds, sh.Rounds+2)
	}
	v.Shrunk = sh
	if err := Recheck(v, opts); err != nil {
		t.Fatalf("recheck of rounds-reduced certificate: %v", err)
	}
}

// TestShrinkRejectsPlanless refuses violations without replayable plans.
func TestShrinkRejectsPlanless(t *testing.T) {
	v, opts := handmadeFloodSetViolation(t, 8, 2)
	v.Plan = nil
	if _, err := Shrink(v, opts); err == nil {
		t.Fatal("expected error for planless violation")
	}
}

// TestRecheckRejectsTampered demands Recheck fail when the recorded
// violation does not match the replay.
func TestRecheckRejectsTampered(t *testing.T) {
	v, opts := handmadeFloodSetViolation(t, 8, 2)
	if err := Recheck(v, opts); err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
	v.Kind = "termination"
	if err := Recheck(v, opts); err == nil {
		t.Fatal("tampered certificate accepted")
	}
}
