package lowerbound

import (
	"testing"

	"expensive/internal/crypto/sig"
	"expensive/internal/protocols/cheap"
	"expensive/internal/protocols/weak"
	"expensive/internal/sim"
)

const (
	testN = 40
	testT = 16
)

func mustFalsify(t *testing.T, name string, factory sim.Factory, rounds int, opts Options) *Report {
	t.Helper()
	rep, err := Falsify(name, factory, rounds, testN, testT, opts)
	if err != nil {
		t.Fatalf("Falsify(%s): %v", name, err)
	}
	return rep
}

func TestFalsifyCheapProtocols(t *testing.T) {
	cases := []struct {
		name    string
		factory sim.Factory
		rounds  int
	}{
		{"silent", cheap.Silent(), cheap.SilentRounds},
		{"leader", cheap.Leader(testN), cheap.LeaderRounds},
		{"star", cheap.Star(testN), cheap.StarRounds},
		{"gossip-k4", cheap.Gossip(testN, 4), cheap.GossipRounds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustFalsify(t, tc.name, tc.factory, tc.rounds, Options{})
			if !rep.Broken() {
				t.Fatalf("expected a violation for sub-quadratic protocol %s; log:\n%v", tc.name, rep.Log)
			}
			if err := rep.Recheck(tc.factory, tc.rounds); err != nil {
				t.Fatalf("certificate for %s does not verify: %v\nviolation: %v", tc.name, err, rep.Verdict())
			}
			t.Logf("%s: %v", tc.name, rep.Verdict())
		})
	}
}

func TestCheapProtocolsUnderBudgetAtScale(t *testing.T) {
	// At n=129, t=128 the paper's budget t²/32 = 512 genuinely dominates the
	// sub-quadratic protocols' message counts, and the falsifier still
	// produces certificates: the lower bound's exact regime.
	n, tf := 129, 128
	cases := []struct {
		name    string
		factory sim.Factory
		rounds  int
	}{
		{"silent", cheap.Silent(), cheap.SilentRounds},
		{"leader", cheap.Leader(n), cheap.LeaderRounds},
		{"star", cheap.Star(n), cheap.StarRounds},
		{"gossip-k3", cheap.Gossip(n, 3), cheap.GossipRounds},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Falsify(tc.name, tc.factory, tc.rounds, n, tf, Options{})
			if err != nil {
				t.Fatalf("Falsify: %v", err)
			}
			if !rep.Broken() {
				t.Fatalf("expected violation; log:\n%v", rep.Log)
			}
			if rep.MaxCorrectMessages >= rep.Threshold {
				t.Errorf("probe sent %d >= t²/32 = %d messages; protocol not in the cheap regime",
					rep.MaxCorrectMessages, rep.Threshold)
			}
			if err := rep.Recheck(tc.factory, tc.rounds); err != nil {
				t.Fatalf("certificate does not verify: %v", err)
			}
		})
	}
}

func TestSoundProtocolRespectsBudget(t *testing.T) {
	// Phase-King requires n > 4t: use a larger system.
	n, tf := 70, 16
	factory, rounds := weak.ViaPhaseKing(n, tf)
	rep, err := Falsify("phase-king", factory, rounds, n, tf, Options{})
	if err != nil {
		t.Fatalf("Falsify(phase-king): %v", err)
	}
	if rep.Broken() {
		t.Fatalf("sound protocol falsified: %v\nlog:\n%v", rep.Verdict(), rep.Log)
	}
	if rep.MaxCorrectMessages < rep.Threshold {
		t.Errorf("sound protocol stayed under t²/32 = %d (max %d) without being falsified — contradicts Theorem 2",
			rep.Threshold, rep.MaxCorrectMessages)
	}
}

func TestSoundAuthenticatedProtocolRespectsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("authenticated IC sweep is slow")
	}
	n, tf := 24, 8
	scheme := sig.NewIdeal("falsifier-test")
	factory, rounds := weak.ViaIC(n, tf, scheme)
	rep, err := Falsify("weak-via-ic", factory, rounds, n, tf, Options{})
	if err != nil {
		t.Fatalf("Falsify(weak-via-ic): %v", err)
	}
	if rep.Broken() {
		t.Fatalf("sound protocol falsified: %v\nlog:\n%v", rep.Verdict(), rep.Log)
	}
}

func TestMergeAblation(t *testing.T) {
	// Without the merge step the falsifier cannot break Silent: in every
	// single isolation probe all processes decide their own (uniform)
	// proposal, so no process ever disagrees and Lemma 2 has no candidate.
	// Only merging the all-0 and all-1 round-1 isolations (Lemma 3) exposes
	// the disagreement. The merge argument is load-bearing.
	rep := mustFalsify(t, "silent", cheap.Silent(), cheap.SilentRounds, Options{DisableMerge: true})
	if rep.Broken() {
		t.Fatalf("merge-ablated falsifier unexpectedly broke silent: %v", rep.Verdict())
	}
	full := mustFalsify(t, "silent", cheap.Silent(), cheap.SilentRounds, Options{})
	if !full.Broken() {
		t.Fatalf("full falsifier failed to break silent")
	}
	if err := full.Recheck(cheap.Silent(), cheap.SilentRounds); err != nil {
		t.Fatalf("certificate does not verify: %v", err)
	}
}
