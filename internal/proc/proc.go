// Package proc provides process identities and deterministic process-set
// algebra for the synchronous distributed system Π = {p_0, ..., p_{n-1}}.
//
// The paper indexes processes from 1; this implementation uses 0-based IDs
// throughout. All set operations are value-semantic and deterministic:
// Members always returns IDs in increasing order, so no behavior ever
// depends on map iteration order.
package proc

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// ID identifies a process in Π.
type ID int

// String returns the conventional name of the process, e.g. "p3".
func (id ID) String() string { return fmt.Sprintf("p%d", int(id)) }

const wordBits = 64

// Set is an immutable-by-convention set of process IDs backed by a bitset.
// The zero value is the empty set.
type Set struct {
	words []uint64
}

// NewSet returns a set containing exactly the given IDs.
func NewSet(ids ...ID) Set {
	maxID := ID(-1)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	if maxID < 0 {
		return Set{}
	}
	s := Set{words: make([]uint64, int(maxID)/wordBits+1)}
	for _, id := range ids {
		if id >= 0 {
			s.words[int(id)/wordBits] |= 1 << uint(int(id)%wordBits)
		}
	}
	return s
}

// Range returns the set {lo, lo+1, ..., hi-1}. An empty range yields the
// empty set.
func Range(lo, hi ID) Set {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return Set{}
	}
	s := Set{words: make([]uint64, (int(hi)-1)/wordBits+1)}
	for id := lo; id < hi; id++ {
		s.words[int(id)/wordBits] |= 1 << uint(int(id)%wordBits)
	}
	return s
}

// Universe returns the full process set {0, ..., n-1}.
func Universe(n int) Set { return Range(0, ID(n)) }

func (s Set) clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// Add returns s ∪ {id}.
func (s Set) Add(id ID) Set {
	if id < 0 {
		return s
	}
	out := s.clone()
	word, bit := int(id)/wordBits, uint(int(id)%wordBits)
	for len(out.words) <= word {
		out.words = append(out.words, 0)
	}
	out.words[word] |= 1 << bit
	return out
}

// Remove returns s \ {id}.
func (s Set) Remove(id ID) Set {
	if !s.Contains(id) {
		return s
	}
	out := s.clone()
	word, bit := int(id)/wordBits, uint(int(id)%wordBits)
	out.words[word] &^= 1 << bit
	return out
}

// Contains reports whether id ∈ s.
func (s Set) Contains(id ID) bool {
	if id < 0 {
		return false
	}
	word, bit := int(id)/wordBits, uint(int(id)%wordBits)
	if word >= len(s.words) {
		return false
	}
	return s.words[word]&(1<<bit) != 0
}

// Len returns |s|.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether s is the empty set.
func (s Set) Empty() bool { return s.Len() == 0 }

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	long, short := s.words, o.words
	if len(short) > len(long) {
		long, short = short, long
	}
	w := make([]uint64, len(long))
	copy(w, long)
	for i, v := range short {
		w[i] |= v
	}
	return Set{words: w}
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	n := min(len(s.words), len(o.words))
	w := make([]uint64, n)
	for i := 0; i < n; i++ {
		w[i] = s.words[i] & o.words[i]
	}
	return Set{words: w}
}

// Diff returns s \ o.
func (s Set) Diff(o Set) Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	for i := 0; i < len(w) && i < len(o.words); i++ {
		w[i] &^= o.words[i]
	}
	return Set{words: w}
}

// Complement returns Π \ s where Π = {0, ..., n-1}. This is the paper's
// notation Ḡ for a group G. It is Universe(n).Diff(s) in one allocation.
func (s Set) Complement(n int) Set {
	if n <= 0 {
		return Set{words: []uint64{}}
	}
	w := make([]uint64, (n-1)/wordBits+1)
	for i := range w {
		w[i] = ^uint64(0)
	}
	if r := n % wordBits; r != 0 {
		w[len(w)-1] = 1<<uint(r) - 1
	}
	for i := 0; i < len(w) && i < len(s.words); i++ {
		w[i] &^= s.words[i]
	}
	return Set{words: w}
}

// Equal reports whether s and o contain the same IDs.
func (s Set) Equal(o Set) bool {
	long, short := s.words, o.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for i := len(short); i < len(long); i++ {
		if long[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ o.
func (s Set) SubsetOf(o Set) bool { return s.Diff(o).Empty() }

// Members returns the IDs in s in increasing order.
func (s Set) Members() []ID {
	out := make([]ID, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, ID(wi*wordBits+b))
			w &^= 1 << uint(b)
		}
	}
	return out
}

// Next returns the smallest ID in s greater than id, or -1 if there is
// none: for id := s.Min(); id >= 0; id = s.Next(id) walks s in increasing
// order without building Members.
func (s Set) Next(id ID) ID {
	from := max(int(id)+1, 0)
	wi := from / wordBits
	if wi >= len(s.words) {
		return -1
	}
	w := s.words[wi] &^ (1<<uint(from%wordBits) - 1)
	for {
		if w != 0 {
			return ID(wi*wordBits + bits.TrailingZeros64(w))
		}
		if wi++; wi >= len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
}

// String renders the set as "{p0,p3,p7}".
func (s Set) String() string {
	ms := s.Members()
	parts := make([]string, len(ms))
	for i, id := range ms {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Min returns the smallest ID in s, or -1 if s is empty.
func (s Set) Min() ID { return s.Next(-1) }

// Partition is a three-way partition (A, B, C) of Π as used throughout §3
// of the paper: |B| = |C| = t/4 and A holds the remaining n - t/2 processes.
type Partition struct {
	N int
	A Set
	B Set
	C Set
}

// NewPartition builds the canonical partition of Π = {0..n-1} used by the
// lower-bound construction: B is the first ⌊t/4⌋ IDs after A, C the last
// ⌊t/4⌋ IDs, A everything before them. It returns an error when n or t make
// the partition degenerate.
func NewPartition(n, t int) (Partition, error) {
	if t < 4 || t >= n {
		return Partition{}, fmt.Errorf("partition requires 4 <= t < n, got n=%d t=%d", n, t)
	}
	g := t / 4
	if n-2*g < 1 {
		return Partition{}, fmt.Errorf("partition requires n - 2*(t/4) >= 1, got n=%d t=%d", n, t)
	}
	a := Range(0, ID(n-2*g))
	b := Range(ID(n-2*g), ID(n-g))
	c := Range(ID(n-g), ID(n))
	return Partition{N: n, A: a, B: b, C: c}, nil
}

// Validate checks that (A, B, C) is indeed a partition of {0..n-1}.
func (p Partition) Validate() error {
	if !p.A.Intersect(p.B).Empty() || !p.A.Intersect(p.C).Empty() || !p.B.Intersect(p.C).Empty() {
		return fmt.Errorf("partition groups overlap: A=%v B=%v C=%v", p.A, p.B, p.C)
	}
	if !p.A.Union(p.B).Union(p.C).Equal(Universe(p.N)) {
		return fmt.Errorf("partition does not cover Π (n=%d): A=%v B=%v C=%v", p.N, p.A, p.B, p.C)
	}
	return nil
}

// Subsets enumerates every subset of s, invoking fn for each. Enumeration
// order is deterministic (binary counting over the sorted members). It is
// intended for the small n used by the validity checkers; the caller is
// responsible for keeping |s| small.
//
// Each non-empty subset is one allocation, its own; the empty one is the
// zero Set.
func (s Set) Subsets(fn func(Set) bool) {
	if s.Len() > 20 {
		// Guard against accidental exponential blow-up.
		panic("proc: Subsets called on a set with more than 20 members")
	}
	var buf [20]ID
	ms := buf[:0]
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			ms = append(ms, ID(wi*wordBits+bits.TrailingZeros64(w)))
		}
	}
	total := 1 << len(ms)
	for mask := 0; mask < total; mask++ {
		var sub Set
		if mask != 0 {
			sub.words = make([]uint64, len(s.words))
			for i, id := range ms {
				if mask&(1<<i) != 0 {
					sub.words[int(id)/wordBits] |= 1 << uint(int(id)%wordBits)
				}
			}
		}
		if !fn(sub) {
			return
		}
	}
}

// SortIDs sorts a slice of IDs in increasing order, in place, and returns it.
func SortIDs(ids []ID) []ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
