package validity_test

import (
	"testing"

	"expensive/internal/validity"
)

// TestSolveCCAllocations holds Theorem 4's exact check, which every
// derived-* build runs, to its admissibility table: weak consensus at
// n = 6, t = 1 (256 configurations, two outputs) read 36 662 allocations
// while every containment set was materialised and every (c, v) put to
// the predicate once per configuration containing c, and reads 281 with
// one table: the configurations, their keys in Γ and the map.
func TestSolveCCAllocations(t *testing.T) {
	p := validity.Weak(6, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if s, _ := p.SolveCC(); !s.CC {
			t.Fatal("weak consensus fails the containment condition at n=6 t=1")
		}
	})
	t.Logf("Weak(6,1).SolveCC: %.0f allocations", allocs)
	if allocs >= 340 {
		t.Errorf("Weak(6,1).SolveCC allocates %.0f times, want < 340", allocs)
	}
}
