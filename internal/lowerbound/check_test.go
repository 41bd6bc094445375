package lowerbound

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/protocols/reduction"
	"expensive/internal/protocols/weak"
	"expensive/internal/sim"
)

// starCertificate falsifies star at (testN, testT): a fresh certificate to
// tamper with. Correct p1 decides 0 and correct p32 decides 1, because
// the faulty hub p0 send-omits its round-2 verdict to p32.
func starCertificate(t *testing.T) *Report {
	t.Helper()
	rep := mustFalsify(t, "star", cheap.Star(testN), cheap.StarRounds, Options{Parallelism: 1})
	if v := rep.Violation; v == nil || v.Kind != "agreement" || v.Witness1 != 1 || v.Witness2 != 32 {
		t.Fatalf("star certificate changed: %s", rep.Verdict())
	}
	return rep
}

// TestCheckViolationRejectsTampering holds Report.Recheck to the plan
// certificate: every forged claim and every forged plan is refused. A
// forged trace (a decision rewritten, a message injected) is
// omission.Certify's to refuse, on every replay Target.Replay makes:
// omission's TestCertify and TestValidateRejectsMutations and adversary's
// TestReplayRefuses cover it.
func TestCheckViolationRejectsTampering(t *testing.T) {
	if err := starCertificate(t).Recheck(cheap.Star(testN), cheap.StarRounds); err != nil {
		t.Fatalf("genuine certificate refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(v *adversary.Violation)
		want string
	}{
		{"nil violation", nil, "nil violation"},
		{"forged decision in trace", func(v *adversary.Violation) { v.D2 = msg.FlipBit(v.D2) }, "does not match"},
		{"witness not correct", func(v *adversary.Violation) { v.Plan.Faulty = append(v.Plan.Faulty, v.Witness2) }, "no violation"},
		{"faulty agreement witness", func(v *adversary.Violation) { v.Witness1 = 0 }, "does not match"},
		{"agreeing witnesses", func(v *adversary.Violation) { v.Witness1 = v.Witness2 }, "does not match"},
		{"swapped witnesses", func(v *adversary.Violation) { v.Witness1, v.Witness2 = v.Witness2, v.Witness1 }, "does not match"},
		{"unknown kind", func(v *adversary.Violation) { v.Kind = "mystery" }, "does not match"},
		{"phantom message injected", func(v *adversary.Violation) {
			// Faulty p33 sends what no honest machine sends, yet this
			// equivocator still reports 0 to the hub, so the verdict
			// replays as it was: only the plan's form refuses it.
			v.Plan.Byzantine = []adversary.ByzEntry{{ID: 33, Spec: adversary.MachineSpec{Kind: adversary.KindEquivocate}}}
		}, "omission execution"},
		{"send-omission dropped", func(v *adversary.Violation) {
			i := slices.Index(v.Plan.SendOmit, msg.Key{Sender: 0, Receiver: 32, Round: 2})
			if i < 0 {
				t.Fatalf("the plan does not send-omit p0→p32 in round 2: %v", v.Plan.SendOmit)
			}
			v.Plan.SendOmit = slices.Delete(v.Plan.SendOmit, i, i+1)
		}, "no violation"},
		{"fault budget exceeded", func(v *adversary.Violation) {
			// t+1 faulty, the witnesses p1 and p32 kept outside.
			for id := proc.ID(2); len(v.Plan.Faulty) <= testT; id++ {
				v.Plan.Faulty = append(v.Plan.Faulty, id)
			}
		}, "t=16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := starCertificate(t)
			if tc.mut == nil {
				rep.Violation = nil
			} else {
				tc.mut(rep.Violation)
			}
			err := rep.Recheck(cheap.Star(testN), cheap.StarRounds)
			if err == nil {
				t.Fatal("tampered certificate accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	t.Run("sound spec", func(t *testing.T) {
		// The plan that splits star is harmless to weak consensus via IC.
		factory, rounds := weak.ViaIC(testN, testT, sig.NewIdeal("recheck-test"))
		if err := starCertificate(t).Recheck(factory, rounds); err == nil || !strings.Contains(err.Error(), "no violation") {
			t.Errorf("star's plan against weak-via-ic: got %v, want no violation", err)
		}
	})
}

// TestCheckViolationTerminationNeedsHorizon refuses a decided process
// claimed as a termination witness.
func TestCheckViolationTerminationNeedsHorizon(t *testing.T) {
	rep := starCertificate(t)
	rep.Violation.Kind = "termination"
	if err := rep.Recheck(cheap.Star(testN), cheap.StarRounds); err == nil {
		t.Fatal("decided process accepted as termination witness")
	}
}

// TestViolationString pins Report.Verdict: the three violation sentences
// and the survivor's.
func TestViolationString(t *testing.T) {
	rep := starCertificate(t)
	for kind, want := range map[string]string{
		"agreement":   `agreement violation: correct p1 decides "0", correct p32 decides "1" (E_B(1)_0: Lemma 2 swap`,
		"termination": "termination violation: correct p32 never decides (E_B(1)_0",
		"validity":    `weak validity violation: correct p32 decides "1" in a unanimous fault-free execution (E_B(1)_0`,
	} {
		rep.Violation.Kind = kind
		if s := rep.Verdict(); !strings.HasPrefix(s, want) {
			t.Errorf("%s: Verdict = %q", kind, s)
		}
	}
	rep.Violation = nil
	if s := rep.Verdict(); !strings.Contains(s, "paid the quadratic price") {
		t.Errorf("survivor: Verdict = %q", s)
	}
}

func TestFalsifyParameterValidation(t *testing.T) {
	if _, err := Falsify("x", cheap.Silent(), 1, 10, 4, Options{}); err == nil {
		t.Error("expected error for t < 8")
	}
	if _, err := Falsify("x", cheap.Silent(), 1, 8, 8, Options{}); err == nil {
		t.Error("expected error for t >= n")
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{Name: "x", Complexity: "O(1)"}
	if got := c.String(); got != "x (O(1))" {
		t.Errorf("String = %q", got)
	}
}

// TestCandidateLifted checks Algorithm 1's one home: the lifted protocol
// decides the weak proposal and sends exactly the messages of the
// protocol under it (Lemma 18), and a lift whose two configurations
// decide alike is refused under the candidate's name.
func TestCandidateLifted(t *testing.T) {
	const n, tf = 5, 1
	c := Candidate{
		Name: "pk",
		Build: func(n, t int) (sim.Factory, int, error) {
			return phaseking.New(phaseking.Config{N: n, T: t}), phaseking.RoundBound(t), nil
		},
		Lift: Lift{V0: msg.Zero, V1: msg.One},
	}
	run := func(f sim.Factory, rounds int, v msg.Value) (msg.Value, int) {
		e, err := sim.Run(sim.Config{N: n, T: tf, Proposals: msg.Uniform(n, v), MaxRounds: sim.Horizon(rounds)}, f, sim.NoFaults{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.CommonDecision(proc.Universe(n))
		if err != nil {
			t.Fatal(err)
		}
		return d, e.CorrectMessages()
	}
	inner, weak, rounds, err := c.Lifted(n, tf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []msg.Value{msg.Zero, msg.One} {
		d, w := run(weak, rounds, b)
		_, m := run(inner, rounds, b)
		if d != b || w != m {
			t.Errorf("proposing %s: lifted decided %s with %d messages, inner sent %d", b, d, w, m)
		}
	}

	c.Lift = Lift{V0: msg.Zero, V1: msg.Zero}
	var trivial *reduction.TrivialLiftError
	if _, _, _, err := c.Lifted(n, tf); !errors.As(err, &trivial) || !strings.HasPrefix(err.Error(), "pk: ") {
		t.Errorf("trivial lift: err = %v, want a *TrivialLiftError prefixed with the name", err)
	}
}
