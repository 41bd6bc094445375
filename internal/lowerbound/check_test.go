package lowerbound

import (
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
)

// genuineViolation produces a verified certificate to tamper with.
func genuineViolation(t *testing.T) (*Violation, func() *Violation) {
	t.Helper()
	factory := cheap.Leader(testN)
	fresh := func() *Violation {
		rep, err := Falsify("leader", factory, cheap.LeaderRounds, testN, testT, Options{})
		if err != nil {
			t.Fatalf("Falsify: %v", err)
		}
		if !rep.Broken() {
			t.Fatal("leader not falsified")
		}
		return rep.Violation
	}
	return fresh(), fresh
}

func TestCheckViolationRejectsTampering(t *testing.T) {
	factory := cheap.Leader(testN)
	_, fresh := genuineViolation(t)

	mutations := []struct {
		name string
		mut  func(v *Violation)
		want string
	}{
		{
			"nil violation",
			nil,
			"nil",
		},
		{
			"forged decision in trace",
			func(v *Violation) {
				b := v.Exec.Behavior(v.Witness2)
				for i := range b.Fragments {
					if b.Fragments[i].Decided {
						b.Fragments[i].Decision = msg.FlipBit(b.Fragments[i].Decision)
					}
				}
			},
			"conform",
		},
		{
			"witness not correct",
			func(v *Violation) {
				v.Exec.Faulty = v.Exec.Faulty.Add(v.Witness2)
			},
			"correct",
		},
		{
			"agreeing witnesses",
			func(v *Violation) {
				// Point both witnesses at the same process.
				v.Witness1 = v.Witness2
			},
			"agree",
		},
		{
			"unknown kind",
			func(v *Violation) { v.Kind = "mystery" },
			"unknown",
		},
		{
			"phantom message injected",
			func(v *Violation) {
				b := v.Exec.Behavior(v.Witness1)
				b.Fragments[0].Received = append(b.Fragments[0].Received,
					msg.Message{Sender: 5, Receiver: v.Witness1, Round: 1, Payload: "ghost"})
			},
			"",
		},
		{
			"fault budget exceeded",
			func(v *Violation) {
				for i := 0; i < v.Exec.T+1; i++ {
					v.Exec.Faulty = v.Exec.Faulty.Add(proc.ID(i))
				}
				// Keep the witnesses outside the enlarged faulty set.
				v.Witness1 = proc.ID(v.Exec.N - 1)
				v.Witness2 = proc.ID(v.Exec.N - 2)
			},
			"",
		},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			var v *Violation
			if tc.mut != nil {
				v = fresh()
				tc.mut(v)
			}
			err := CheckViolation(v, factory, cheap.LeaderRounds)
			if err == nil {
				t.Fatal("tampered certificate accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckViolationTerminationNeedsHorizon(t *testing.T) {
	// A "termination" claim on an execution shorter than the protocol's
	// round bound is not yet a violation and must be rejected.
	v, _ := genuineViolation(t)
	v.Kind = "termination"
	// Witness2 actually decided, so this must be rejected either way.
	if err := CheckViolation(v, cheap.Leader(testN), cheap.LeaderRounds); err == nil {
		t.Fatal("decided process accepted as termination witness")
	}
}

func TestViolationString(t *testing.T) {
	v, _ := genuineViolation(t)
	if s := v.String(); !strings.Contains(s, "agreement") {
		t.Errorf("String = %q", s)
	}
	v.Kind = "termination"
	if s := v.String(); !strings.Contains(s, "never decides") {
		t.Errorf("String = %q", s)
	}
	v.Kind = "weak-validity"
	if s := v.String(); !strings.Contains(s, "unanimous") {
		t.Errorf("String = %q", s)
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
