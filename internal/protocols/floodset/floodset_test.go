package floodset_test

import (
	"testing"

	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/floodset"
	"expensive/internal/sim"
)

func runFS(t *testing.T, n, tf int, proposals []msg.Value, plan sim.FaultPlan) *sim.Execution {
	t.Helper()
	cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: floodset.RoundBound(tf) + 2}
	e, err := sim.Run(cfg, floodset.New(floodset.Config{N: n, T: tf}), plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

func TestFloodSetFaultFree(t *testing.T) {
	proposals := []msg.Value{"3", "1", "2", "5", "4"}
	e := runFS(t, 5, 2, proposals, sim.NoFaults{})
	d, err := e.CommonDecision(proc.Universe(5))
	if err != nil || d != "1" {
		t.Fatalf("decision %q err %v, want min=1", d, err)
	}
	if err := omission.Validate(e); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}

func TestFloodSetSurvivesCascadingCrashes(t *testing.T) {
	// The hard crash schedule: one crash per round, each with partial
	// delivery — the scenario the t+1 round count exists for.
	n, tf := 6, 2
	proposals := []msg.Value{"0", "9", "9", "9", "9", "9"}
	plan := sim.Crash(map[proc.ID]sim.CrashSpec{
		0: {Round: 1, DeliverTo: proc.NewSet(1)}, // tells only p1 about "0"
		1: {Round: 2, DeliverTo: proc.NewSet(2)}, // p1 crashes mid-relay
	})
	e, err := sim.Run(sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: floodset.RoundBound(tf) + 2},
		floodset.New(floodset.Config{N: n, T: tf}), plan)
	if err != nil {
		t.Fatal(err)
	}
	correct := proc.NewSet(2, 3, 4, 5)
	if _, err := e.CommonDecision(correct); err != nil {
		t.Fatalf("Agreement violated under crashes: %v", err)
	}
}

func TestFloodSetBreaksUnderOmission(t *testing.T) {
	// The last-round-reveal omission adversary: crash-tolerance is not
	// omission-tolerance. A single faulty process splits the decision.
	n, tf := 6, 2
	proposals := []msg.Value{"0", "9", "9", "9", "9", "9"}
	plan := omission.Withhold(0, 1, floodset.RoundBound(tf))
	e := runFS(t, n, tf, proposals, plan)
	if err := omission.Validate(e); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	d1, _ := e.Decision(1)
	d2, _ := e.Decision(2)
	if d1 != "0" {
		t.Errorf("victim decided %q, want 0 (the revealed value)", d1)
	}
	if d2 != "9" {
		t.Errorf("bystander decided %q, want 9", d2)
	}
	if _, err := e.CommonDecision(proc.Range(1, 6)); err == nil {
		t.Fatal("expected agreement violation among correct processes")
	}
}

func TestFloodSetDecidesWithinBound(t *testing.T) {
	e := runFS(t, 4, 1, []msg.Value{"b", "a", "c", "d"}, sim.NoFaults{})
	if e.Rounds > floodset.RoundBound(1)+1 {
		t.Errorf("rounds = %d", e.Rounds)
	}
	d, _ := e.Decision(0)
	if d != "a" {
		t.Errorf("decision %q", d)
	}
}
