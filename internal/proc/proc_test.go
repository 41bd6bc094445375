package proc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(3, 1, 7)
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for _, id := range []ID{1, 3, 7} {
		if !s.Contains(id) {
			t.Errorf("Contains(%v) = false", id)
		}
	}
	for _, id := range []ID{0, 2, 8, -1} {
		if s.Contains(id) {
			t.Errorf("Contains(%v) = true", id)
		}
	}
	if got := s.String(); got != "{p1,p3,p7}" {
		t.Errorf("String = %q", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := (Set{}).Min(); got != -1 {
		t.Errorf("empty Min = %v, want -1", got)
	}
}

func TestSetAddRemoveImmutability(t *testing.T) {
	s := NewSet(1, 2)
	s2 := s.Add(5)
	if s.Contains(5) {
		t.Error("Add mutated the receiver")
	}
	s3 := s2.Remove(1)
	if !s2.Contains(1) {
		t.Error("Remove mutated the receiver")
	}
	if s3.Contains(1) || !s3.Contains(5) {
		t.Errorf("Remove result wrong: %v", s3)
	}
	if got := s.Remove(99); !got.Equal(s) {
		t.Error("removing absent member changed set")
	}
}

func TestRangeAndUniverse(t *testing.T) {
	if got := Range(2, 5).Members(); !reflect.DeepEqual(got, []ID{2, 3, 4}) {
		t.Errorf("Range(2,5) = %v", got)
	}
	if got := Range(5, 2); !got.Empty() {
		t.Errorf("empty range not empty: %v", got)
	}
	if got := Universe(3).Members(); !reflect.DeepEqual(got, []ID{0, 1, 2}) {
		t.Errorf("Universe(3) = %v", got)
	}
}

func TestComplement(t *testing.T) {
	g := NewSet(1, 3)
	want := []ID{0, 2, 4}
	if got := g.Complement(5).Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("Complement = %v, want %v", got, want)
	}
}

// TestComplementMatchesDiff holds Complement to its definition,
// Universe(n).Diff(s), word for word, at sizes on both sides of a word
// boundary and for sets reaching past n, and to one allocation.
func TestComplementMatchesDiff(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 63, 64, 65, 127, 128, 130} {
		for _, s := range []Set{{}, Universe(n), randomSet(r, n), randomSet(r, n+70)} {
			if got, want := s.Complement(n), Universe(n).Diff(s); !reflect.DeepEqual(got, want) {
				t.Errorf("%v.Complement(%d) = %#v, want %#v", s, n, got, want)
			}
		}
	}
	s := NewSet(1, 3)
	if got := testing.AllocsPerRun(100, func() { s.Complement(80) }); got > 1 {
		t.Errorf("Complement allocates %.0f times, want 1", got)
	}
}

// TestNextWalksMembers: Min then Next visits exactly Members, in order,
// from any starting ID.
func TestNextWalksMembers(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		s := randomSet(r, 1+r.Intn(200))
		var walked []ID
		for id := s.Min(); id >= 0; id = s.Next(id) {
			walked = append(walked, id)
		}
		if want := s.Members(); !slices.Equal(walked, want) {
			t.Fatalf("walk of %v = %v, want %v", s, walked, want)
		}
		from := ID(r.Intn(220) - 10)
		want := ID(-1)
		for _, id := range s.Members() {
			if id > from {
				want = id
				break
			}
		}
		if got := s.Next(from); got != want {
			t.Fatalf("%v.Next(%d) = %d, want %d", s, from, got, want)
		}
	}
}

// randomSet builds a set from a seed for property tests.
func randomSet(r *rand.Rand, n int) Set {
	var s Set
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s = s.Add(ID(i))
		}
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// De Morgan within a universe of 80 processes (multi-word bitsets).
	deMorgan := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, 80), randomSet(r, 80)
		lhs := a.Union(b).Complement(80)
		rhs := a.Complement(80).Intersect(b.Complement(80))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(deMorgan, cfg); err != nil {
		t.Errorf("De Morgan: %v", err)
	}
	// Diff is intersection with complement.
	diff := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, 80), randomSet(r, 80)
		return a.Diff(b).Equal(a.Intersect(b.Complement(80)))
	}
	if err := quick.Check(diff, cfg); err != nil {
		t.Errorf("Diff: %v", err)
	}
	// Union is commutative and idempotent; lengths obey inclusion-exclusion.
	lens := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, 80), randomSet(r, 80)
		if !a.Union(b).Equal(b.Union(a)) || !a.Union(a).Equal(a) {
			return false
		}
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}
	if err := quick.Check(lens, cfg); err != nil {
		t.Errorf("lengths: %v", err)
	}
	// Members round-trips through NewSet.
	roundTrip := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r, 80)
		return NewSet(a.Members()...).Equal(a)
	}
	if err := quick.Check(roundTrip, cfg); err != nil {
		t.Errorf("round trip: %v", err)
	}
	// SubsetOf is consistent with Diff.
	subset := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r, 80), randomSet(r, 80)
		return a.SubsetOf(b) == a.Diff(b).Empty() && a.Intersect(b).SubsetOf(a)
	}
	if err := quick.Check(subset, cfg); err != nil {
		t.Errorf("subset: %v", err)
	}
}

func TestEqualAcrossWordLengths(t *testing.T) {
	a := NewSet(1)
	b := NewSet(1).Add(100).Remove(100) // longer word slice, same contents
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("Equal not robust to trailing zero words")
	}
}

func TestPartition(t *testing.T) {
	p, err := NewPartition(40, 16)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.B.Len() != 4 || p.C.Len() != 4 || p.A.Len() != 32 {
		t.Errorf("sizes: |A|=%d |B|=%d |C|=%d", p.A.Len(), p.B.Len(), p.C.Len())
	}
	if _, err := NewPartition(5, 2); err == nil {
		t.Error("expected error for t < 4")
	}
	if _, err := NewPartition(4, 4); err == nil {
		t.Error("expected error for t >= n")
	}
	bad := Partition{N: 4, A: NewSet(0, 1), B: NewSet(1, 2), C: NewSet(3)}
	if err := bad.Validate(); err == nil {
		t.Error("expected overlap error")
	}
	gap := Partition{N: 4, A: NewSet(0), B: NewSet(1), C: NewSet(2)}
	if err := gap.Validate(); err == nil {
		t.Error("expected coverage error")
	}
}

func TestSubsets(t *testing.T) {
	var count int
	NewSet(0, 1, 2).Subsets(func(s Set) bool {
		count++
		return true
	})
	if count != 8 {
		t.Errorf("enumerated %d subsets, want 8", count)
	}
	// Early termination.
	count = 0
	NewSet(0, 1, 2).Subsets(func(s Set) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop after %d, want 3", count)
	}
	// Binary counting over the sorted members, across a word boundary.
	ms := []ID{3, 64, 70}
	mask := 0
	NewSet(ms...).Subsets(func(s Set) bool {
		var want Set
		for i, id := range ms {
			if mask&(1<<i) != 0 {
				want = want.Add(id)
			}
		}
		if !s.Equal(want) || s.Len() != want.Len() {
			t.Errorf("subset %d = %v, want %v", mask, s, want)
		}
		mask++
		return true
	})
}

// TestSubsetsAllocations pins Subsets to one allocation per non-empty
// subset: the subset's own words.
func TestSubsetsAllocations(t *testing.T) {
	s := NewSet(0, 2, 5, 9, 66)
	allocs := testing.AllocsPerRun(20, func() {
		s.Subsets(func(Set) bool { return true })
	})
	nonEmpty := 1<<s.Len() - 1
	if want := float64(nonEmpty); allocs != want {
		t.Errorf("Subsets of a %d-member set allocates %.0f times, want %.0f", s.Len(), allocs, want)
	}
}

func TestSortIDs(t *testing.T) {
	ids := []ID{5, 1, 3}
	if got := SortIDs(ids); !reflect.DeepEqual(got, []ID{1, 3, 5}) {
		t.Errorf("SortIDs = %v", got)
	}
}

func TestIDString(t *testing.T) {
	if got := ID(7).String(); got != "p7" {
		t.Errorf("String = %q", got)
	}
}
