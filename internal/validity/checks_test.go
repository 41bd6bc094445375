package validity_test

import (
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/validity"
)

// TestAdmissibleCheckAtRunSize holds the runtime form of Weak, Strong and
// Sender validity to the paper's definitions, judging each run at its own
// size: the last row is a 4-process run handed to a check built for n = 6,
// as the shrinker does after it drops processes.
func TestAdmissibleCheckAtRunSize(t *testing.T) {
	bits := func(s string) []msg.Value {
		out := make([]msg.Value, len(s))
		for i := range s {
			out[i] = msg.Bit(int(s[i] - '0'))
		}
		return out
	}
	set := func(ids ...proc.ID) proc.Set { return proc.NewSet(ids...) }
	cases := []struct {
		name      string
		problem   validity.Problem
		proposals []msg.Value
		correct   proc.Set
		decision  msg.Value
		violation string // "" when the decision is admissible
	}{
		{"weak is vacuous under a fault", validity.Weak(4, 1), bits("0000"), set(0, 1, 2), msg.One, ""},
		{"weak binds a unanimous fault-free run", validity.Weak(4, 1), bits("0000"), proc.Universe(4), msg.One,
			`decided "1", which is not admissible under ⟨(p0,0),(p1,0),(p2,0),(p3,0)⟩`},
		{"strong binds unanimous correct processes under a fault", validity.Strong(4, 1), bits("0001"), set(0, 1, 2), msg.One,
			`decided "1", which is not admissible under ⟨(p0,0),(p1,0),(p2,0)⟩`},
		{"strong admits anything on a split correct set", validity.Strong(4, 1), bits("0101"), proc.Universe(4), msg.One, ""},
		{"weak admits anything on a split correct set", validity.Weak(4, 1), bits("0101"), proc.Universe(4), msg.Zero, ""},
		{"broadcast is vacuous when the sender is faulty", validity.Broadcast(4, 1, 0), bits("1000"), set(1, 2, 3), msg.Zero, ""},
		{"broadcast rejects a wrong decision of a correct sender", validity.Broadcast(4, 1, 0), bits("1000"), set(0, 1, 2), msg.Zero,
			`decided "0", which is not admissible under ⟨(p0,1),(p1,0),(p2,0)⟩`},
		{"broadcast accepts the correct sender's proposal", validity.Broadcast(4, 1, 0), bits("1000"), set(0, 1, 2), msg.One, ""},
		{"strong admits anything with no correct process", validity.Strong(4, 1), bits("0000"), proc.Set{}, msg.One, ""},
		{"broadcast admits anything with no correct process", validity.Broadcast(4, 1, 0), bits("0000"), proc.Set{}, msg.One, ""},
		{"a check built at n=6 judges a 4-process run at n=4", validity.Weak(6, 1), bits("0000"), proc.Universe(4), msg.One,
			`decided "1", which is not admissible under ⟨(p0,0),(p1,0),(p2,0),(p3,0)⟩`},
	}
	for _, tc := range cases {
		err := validity.AdmissibleCheck(tc.problem)(tc.proposals, tc.correct, tc.decision)
		switch {
		case tc.violation == "" && err != nil:
			t.Errorf("%s: unexpected violation: %v", tc.name, err)
		case tc.violation != "" && err == nil:
			t.Errorf("%s: violation not detected", tc.name)
		case tc.violation != "" && err.Error() != tc.violation:
			t.Errorf("%s: violation text %q, want %q", tc.name, err, tc.violation)
		}
	}
}
