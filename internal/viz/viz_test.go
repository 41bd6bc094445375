package viz_test

import (
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
	"expensive/internal/viz"
)

func TestTimelineRendersGlyphsAndGroups(t *testing.T) {
	group := proc.NewSet(6, 7)
	e, err := omission.RunIsolated(8, 4, cheap.Leader(8), msg.Zero, group, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := viz.Timeline(e.Execution, viz.Options{Groups: map[string]proc.Set{"B": group}})
	for _, want := range []string{"p0", "p7", "legend", "(faulty)", "B |", "=0", "=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// The isolated processes receive-omit the leader's message in round 1.
	if !strings.Contains(out, "r") {
		t.Errorf("no receive-omission glyph:\n%s", out)
	}
}

func TestTimelineTruncation(t *testing.T) {
	e, err := omission.RunIsolated(8, 4, cheap.Star(8), msg.Zero, proc.NewSet(7), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	full := viz.Timeline(e.Execution, viz.Options{})
	short := viz.Timeline(e.Execution, viz.Options{MaxRounds: 1})
	if len(short) >= len(full) {
		t.Error("truncated timeline not shorter")
	}
}

func TestDiffLocatesDivergence(t *testing.T) {
	group := proc.NewSet(6, 7)
	e1, err := omission.RunIsolated(8, 4, cheap.Leader(8), msg.Zero, group, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := omission.RunIsolated(8, 4, cheap.Leader(8), msg.Zero, group, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := viz.Diff(e1, e2)
	// The isolated processes' views differ in round 1 (omitted vs received);
	// everyone else is identical.
	if !strings.Contains(out, "p6: round 1") {
		t.Errorf("diff should locate p6's divergence at round 1:\n%s", out)
	}
	if !strings.Contains(out, "p0: -") {
		t.Errorf("diff should report p0 identical:\n%s", out)
	}
}

func TestTimelineGroupsDeterministic(t *testing.T) {
	groupB := proc.NewSet(6, 7)
	groupA := proc.NewSet(0, 1)
	e, err := omission.RunIsolated(8, 4, cheap.Leader(8), msg.Zero, groupB, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Group labels and the label column width must come from the sorted
	// name list, never from map iteration, so renders are byte-identical
	// however the Groups map was built.
	mk := func(names ...string) map[string]proc.Set {
		groups := make(map[string]proc.Set)
		for _, n := range names {
			if n == "widest-label" || n == "A" {
				groups[n] = groupA
			} else {
				groups[n] = groupB
			}
		}
		return groups
	}
	first := viz.Timeline(e.Execution, viz.Options{Groups: mk("A", "B", "widest-label")})
	for i := 0; i < 20; i++ {
		again := viz.Timeline(e.Execution, viz.Options{Groups: mk("widest-label", "B", "A")})
		if again != first {
			t.Fatalf("timeline depends on Groups map construction order:\n%s\nvs\n%s", first, again)
		}
	}
	// "A" sorts first so it wins the label for p0/p1, but the column is
	// still sized by the widest name: "A" padded to len("widest-label").
	if !strings.Contains(first, "           A |") {
		t.Errorf("label column not sized to widest group name:\n%s", first)
	}
}
