package sim_test

import (
	"reflect"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// TestDecideOnce pins the register: unset it reads (NoDecision, false) and
// is not quiescent; the first Decide sets it; a second cannot change it.
func TestDecideOnce(t *testing.T) {
	var d sim.DecideOnce
	if v, ok := d.Decision(); v != msg.NoDecision || ok || d.Quiescent() {
		t.Fatalf("zero register reads (%q, %v), quiescent %v", v, ok, d.Quiescent())
	}
	d.Decide(msg.One)
	d.Decide(msg.Zero)
	if v, ok := d.Decision(); v != msg.One || !ok || !d.Quiescent() {
		t.Fatalf("after Decide(1), Decide(0): (%q, %v), quiescent %v; want the first value", v, ok, d.Quiescent())
	}
	// The empty value is a decision like any other.
	var e sim.DecideOnce
	e.Decide("")
	e.Decide(msg.One)
	if v, ok := e.Decision(); v != "" || !ok {
		t.Fatalf("after Decide(\"\"), Decide(1): (%q, %v)", v, ok)
	}
}

// TestBroadcastLendsOneSlice pins sim.Broadcast: every Send returns the
// same entries, all peers but self in ID order, carrying the latest body.
func TestBroadcastLendsOneSlice(t *testing.T) {
	var b sim.Broadcast
	first := b.Send(4, 2, "a")
	want := []sim.Outgoing{{To: 0, Payload: "a"}, {To: 1, Payload: "a"}, {To: 3, Payload: "a"}}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("first Send: %v, want %v", first, want)
	}
	for _, body := range []string{"a", "b", "", "b"} {
		again := b.Send(4, 2, body)
		if &again[0] != &first[0] || len(again) != len(first) {
			t.Fatalf("Send(%q) returned another slice", body)
		}
		for i, o := range again {
			if o.To != want[i].To || o.Payload != body {
				t.Fatalf("Send(%q): entry %d is %v", body, i, o)
			}
		}
	}
}

// execOf builds a lean execution whose process i decided decisions[i]
// ("-" for undecided).
func execOf(decisions ...msg.Value) *sim.Execution {
	e := &sim.Execution{N: len(decisions), Rounds: 3, Recording: sim.RecordDecisions}
	for i, d := range decisions {
		lean := &sim.LeanBehavior{Decided: d != "-", Decision: d}
		e.Behaviors = append(e.Behaviors, &sim.Behavior{ID: proc.ID(i), Lean: lean})
	}
	return e
}

// TestUnanimityScan pins the one scan and CommonDecision on top of it:
// witnesses in ID order, and a group member the execution does not have is
// an error naming it, not an index panic.
func TestUnanimityScan(t *testing.T) {
	for _, tc := range []struct {
		name       string
		e          *sim.Execution
		group      proc.Set
		common     msg.Value
		first, odd proc.ID
		err        string
	}{
		{"agree", execOf("0", "0", "0"), proc.Universe(3), "0", 0, -1, ""},
		{"subgroup", execOf("1", "0", "0"), proc.NewSet(1, 2), "0", 1, -1, ""},
		{"empty", execOf("0", "0"), proc.Set{}, "", -1, -1, "empty group"},
		{"undecided", execOf("0", "-", "1"), proc.Universe(3), "0", 0, 1, "p1 is undecided after 3 rounds"},
		{"first undecided", execOf("-", "0"), proc.Universe(2), msg.NoDecision, 0, 0, "p0 is undecided after 3 rounds"},
		{"dissent", execOf("0", "0", "1", "-"), proc.Universe(4), "0", 0, 2, `p2 decided "1", others decided "0"`},
		{"outside", execOf("0", "0", "0"), proc.Universe(4), "0", 0, 3, "p3 is not a process of this execution (n=3)"},
		{"only outside", execOf("0", "0"), proc.NewSet(9), msg.NoDecision, 9, 9, "p9 is not a process of this execution (n=2)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			common, first, odd := tc.e.Unanimity(tc.group)
			if common != tc.common || first != tc.first || odd != tc.odd {
				t.Errorf("Unanimity = (%q, %d, %d), want (%q, %d, %d)", common, first, odd, tc.common, tc.first, tc.odd)
			}
			d, err := tc.e.CommonDecision(tc.group)
			switch {
			case tc.err == "" && (err != nil || d != tc.common):
				t.Errorf("CommonDecision = (%q, %v), want %q", d, err, tc.common)
			case tc.err != "" && (err == nil || err.Error() != tc.err):
				t.Errorf("CommonDecision error = %v, want %q", err, tc.err)
			}
		})
	}
}
