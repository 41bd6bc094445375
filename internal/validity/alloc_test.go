package validity_test

import (
	"testing"

	"expensive/internal/validity"
)

// TestSolveCCAllocations holds Theorem 4's exact check, which every
// derived-* build and E6 run, to its admissibility table. Weak consensus
// at n = 6, t = 1 (256 configurations, two outputs) read 36 662
// allocations while every containment set was materialised and every
// (c, v) put to the predicate once per configuration containing c, and
// reads 281 with one table: the configurations, their keys in Γ and the
// map. Interactive consistency at n = 5, t = 2 (192 configurations, 32
// outputs) read 73 957 while its predicate decoded each vector through
// encoding/json and built a configuration from it, and reads 227
// with the predicate reading the vector memo in place.
func TestSolveCCAllocations(t *testing.T) {
	for _, tc := range []struct {
		p     validity.Problem
		below float64
	}{
		{validity.Weak(6, 1), 340},
		{validity.Interactive(5, 2), 300},
	} {
		p := tc.p
		allocs := testing.AllocsPerRun(5, func() {
			if s, _ := p.SolveCC(); !s.CC {
				t.Fatalf("%s fails the containment condition at n=%d t=%d", p.Name, p.N, p.T)
			}
		})
		t.Logf("%s(%d,%d).SolveCC: %.0f allocations", p.Name, p.N, p.T, allocs)
		if allocs >= tc.below {
			t.Errorf("%s(%d,%d).SolveCC allocates %.0f times, want < %.0f", p.Name, p.N, p.T, allocs, tc.below)
		}
	}
}
