// Package stress fuzzes the sound protocols with seeded random
// adversaries and checks the agreement-problem invariants plus the
// Appendix-A execution guarantees on every recorded trace. Since the
// adversary subsystem exists, the package is a thin layer of campaign
// configurations: the strategies, trace validation, conformance
// re-execution, and property checks all live in internal/adversary, and
// every probe here replays from its explicit seed.
package stress

import (
	"fmt"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/protocols/weak"
	"expensive/internal/validity"
)

const fuzzSeeds = 60

// hunt runs one campaign and fails the test on any violation (the
// campaign itself already fails on invalid traces or non-conformant
// machines, which are harness bugs).
func hunt(t *testing.T, c *adversary.Campaign) *adversary.CampaignReport {
	t.Helper()
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("campaign %s vs %s: %v", c.Strategy.Name, c.Protocol, err)
	}
	for _, v := range rep.Violations {
		t.Errorf("campaign %s vs %s: %v", c.Strategy.Name, c.Protocol, v)
	}
	return rep
}

// binaryStrong is Strong Validity plus the binary-decision domain check.
func binaryStrong(proposals []msg.Value, correct proc.Set, decision msg.Value) error {
	if !msg.IsBit(decision) {
		return fmt.Errorf("non-binary decision %q", decision)
	}
	return strongValidity(proposals, correct, decision)
}

// strongValidity is Strong Validity at phase-king's (9, 2), the size of
// every binaryStrong campaign below.
var strongValidity = validity.AdmissibleCheck(validity.Strong(9, 2))

func TestPhaseKingUnderRandomByzantine(t *testing.T) {
	n, tf := 9, 2
	factory := phaseking.New(phaseking.Config{N: n, T: tf})
	for _, strategy := range []adversary.Strategy{
		adversary.Chaos(),
		adversary.Equivocate(),
		adversary.TwoFaced(),
	} {
		hunt(t, &adversary.Campaign{
			Target: adversary.Target{
				Protocol: "phase-king",
				Factory:  factory,
				Rounds:   phaseking.RoundBound(tf),
				N:        n,
				T:        tf,
				Validity: binaryStrong,
			},
			Strategy: strategy,
			Seeds:    adversary.SeedRange{From: 0, To: fuzzSeeds},
		})
	}
}

func TestPhaseKingUnderRandomOmissions(t *testing.T) {
	n, tf := 9, 2
	hunt(t, &adversary.Campaign{
		Target: adversary.Target{
			Protocol: "phase-king",
			Factory:  phaseking.New(phaseking.Config{N: n, T: tf}),
			Rounds:   phaseking.RoundBound(tf),
			N:        n,
			T:        tf,
			Validity: binaryStrong,
		},
		Strategy: adversary.RandomOmission(40),
		Seeds:    adversary.SeedRange{From: 1000, To: 1000 + fuzzSeeds},
	})
}

func TestPhaseKingUnderCombinedAdversary(t *testing.T) {
	// The storm the old suite could not express: omissions and Byzantine
	// chatter in one plan, gated and attenuated by the combinators.
	n, tf := 9, 2
	strategy := adversary.Union(
		adversary.Biased(adversary.RandomOmission(60), 70),
		adversary.Chaos(),
	)
	hunt(t, &adversary.Campaign{
		Target: adversary.Target{
			Protocol: "phase-king",
			Factory:  phaseking.New(phaseking.Config{N: n, T: tf}),
			Rounds:   phaseking.RoundBound(tf),
			N:        n,
			T:        tf,
			Validity: binaryStrong,
		},
		Strategy: strategy,
		Seeds:    adversary.SeedRange{From: 0, To: fuzzSeeds / 2},
	})
}

func TestWeakEIGUnderRandomByzantine(t *testing.T) {
	n, tf := 7, 2
	factory, rounds := weak.ViaEIG(n, tf)
	hunt(t, &adversary.Campaign{
		Target: adversary.Target{
			Protocol: "weak-via-eig",
			Factory:  factory,
			Rounds:   rounds,
			N:        n,
			T:        tf,
			Validity: validity.AdmissibleCheck(validity.Weak(n, tf)),
		},
		Strategy: adversary.Chaos(),
		Seeds:    adversary.SeedRange{From: 2000, To: 2000 + fuzzSeeds/2},
	})
}

func TestWeakICUnderRandomByzantine(t *testing.T) {
	n, tf := 6, 2
	factory, rounds := weak.ViaIC(n, tf, sig.NewIdeal("stress-ic"))
	hunt(t, &adversary.Campaign{
		Target: adversary.Target{
			Protocol: "weak-via-ic",
			Factory:  factory,
			Rounds:   rounds,
			N:        n,
			T:        tf,
			Validity: validity.AdmissibleCheck(validity.Weak(n, tf)),
		},
		Strategy: adversary.Chaos(),
		Seeds:    adversary.SeedRange{From: 3000, To: 3000 + fuzzSeeds/3},
	})
}

func TestDolevStrongUnderRandomByzantine(t *testing.T) {
	n, tf := 7, 2
	cfg := dolevstrong.Config{N: n, T: tf, Sender: 0, Scheme: sig.NewIdeal("stress-ds"), Tag: "bb", Default: "⊥"}
	hunt(t, &adversary.Campaign{
		Target: adversary.Target{
			Protocol: "dolev-strong",
			Factory:  dolevstrong.New(cfg),
			Rounds:   dolevstrong.RoundBound(tf),
			N:        n,
			T:        tf,
			Validity: validity.AdmissibleCheck(validity.Broadcast(n, tf, 0)),
		},
		Strategy: adversary.Chaos(),
		Seeds:    adversary.SeedRange{From: 4000, To: 4000 + fuzzSeeds},
	})
}

func TestCampaignsReplayFromSeeds(t *testing.T) {
	// The replayability contract the whole suite rests on: re-running a
	// campaign yields the identical report, probe for probe.
	n, tf := 9, 2
	campaign := func() *adversary.Campaign {
		return &adversary.Campaign{
			Target: adversary.Target{
				Protocol: "phase-king",
				Factory:  phaseking.New(phaseking.Config{N: n, T: tf}),
				Rounds:   phaseking.RoundBound(tf),
				N:        n,
				T:        tf,
			},
			Strategy: adversary.RandomOmission(40),
			Seeds:    adversary.SeedRange{From: 0, To: 10},
		}
	}
	a, err := campaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Messages) != fmt.Sprint(b.Messages) || fmt.Sprint(a.RoundsHist) != fmt.Sprint(b.RoundsHist) {
		t.Fatalf("replayed campaign differs:\n%v\n%v", a, b)
	}
}
