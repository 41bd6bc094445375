package validity

import (
	"fmt"
	"math/bits"

	"expensive/internal/msg"
	"expensive/internal/proc"
)

// Problem is a Byzantine agreement problem: system parameters, finite
// proposal and decision domains, and a validity property val: I → 2^{V_O}
// given as an admissibility predicate. §4.1: the validity property alone
// defines the problem.
type Problem struct {
	Name    string
	N       int
	T       int
	Inputs  []msg.Value
	Outputs []msg.Value
	// Admissible reports v ∈ val(c).
	Admissible func(c InputConfig, v msg.Value) bool
}

// Validate checks structural sanity.
func (p Problem) Validate() error {
	switch {
	case p.N < 2 || p.T < 0 || p.T >= p.N:
		return fmt.Errorf("problem %s: need 0 <= t < n, n >= 2 (n=%d t=%d)", p.Name, p.N, p.T)
	case len(p.Inputs) == 0 || len(p.Outputs) == 0:
		return fmt.Errorf("problem %s: empty value domain", p.Name)
	case p.Admissible == nil:
		return fmt.Errorf("problem %s: nil validity predicate", p.Name)
	case p.N > 8:
		return fmt.Errorf("problem %s: exact checkers enumerate I; n=%d is too large (max 8)", p.Name, p.N)
	}
	return nil
}

// Configs enumerates I: every assignment of proposals from Inputs to every
// subset of Π of size at least n-t. Deterministic order: by π(c) as a
// bitmask, then by the assignment read as a number in base |Inputs| whose
// least significant digit is π(c)'s lowest process.
func (p Problem) Configs() []InputConfig {
	configs, _ := p.configs()
	return configs
}

// configs is Configs together with, for each bitmask m over Π, the index
// of the first configuration with π(c) = m (-1 for an m too small to be
// π of a configuration in I). The configurations share one backing array
// of proposals, and those of one π(c) share its proc.Set; no InputConfig
// method writes either.
func (p Problem) configs() ([]InputConfig, []int) {
	if p.N > 20 {
		// Guard against accidental exponential blow-up.
		panic(fmt.Sprintf("validity: enumerating I at n=%d", p.N))
	}
	k := len(p.Inputs)
	first := make([]int, 1<<p.N)
	total := 0
	for m := range first {
		first[m] = -1
		if size := bits.OnesCount(uint(m)); size >= p.N-p.T {
			first[m] = total
			total += pow(k, size)
		}
	}
	out := make([]InputConfig, 0, total)
	vals := make([]msg.Value, total*p.N)
	members := make([]proc.ID, 0, p.N)
	for m, at := range first {
		if at < 0 {
			continue
		}
		members = members[:0]
		for q := uint(m); q != 0; q &= q - 1 {
			members = append(members, proc.ID(bits.TrailingZeros(q)))
		}
		present := proc.NewSet(members...)
		for idx, size := 0, pow(k, len(members)); idx < size; idx++ {
			row := vals[:p.N:p.N]
			vals = vals[p.N:]
			x := idx
			for _, id := range members {
				row[id] = p.Inputs[x%k]
				x /= k
			}
			out = append(out, InputConfig{n: p.N, present: present, vals: row})
		}
	}
	return out, first
}

func pow(k, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= k
	}
	return out
}

// FullConfigs enumerates I_n.
func (p Problem) FullConfigs() []InputConfig {
	var out []InputConfig
	for _, c := range p.Configs() {
		if c.Full() {
			out = append(out, c)
		}
	}
	return out
}

// AdmissibleSet returns val(c) as a slice in Outputs order.
func (p Problem) AdmissibleSet(c InputConfig) []msg.Value {
	var out []msg.Value
	for _, v := range p.Outputs {
		if p.Admissible(c, v) {
			out = append(out, v)
		}
	}
	return out
}

// admissibility is I enumerated once, with val(c) of every configuration
// as a bitset over Outputs: bit j of row r is set iff Outputs[j] ∈
// val(configs[r]). Each (c, v) is put to the predicate exactly once; only
// a failed containment condition's witness asks again.
type admissibility struct {
	p       Problem
	configs []InputConfig
	first   []int    // as returned by Problem.configs
	words   int      // bitset words per row
	rows    []uint64 // row r is rows[r*words : (r+1)*words]
}

func (p Problem) admissibility() *admissibility {
	configs, first := p.configs()
	a := &admissibility{p: p, configs: configs, first: first, words: (len(p.Outputs) + 63) / 64}
	a.rows = make([]uint64, len(configs)*a.words)
	for r, c := range configs {
		row := a.row(r)
		for j, v := range p.Outputs {
			if p.Admissible(c, v) {
				row[j/64] |= 1 << (j % 64)
			}
		}
	}
	return a
}

func (a *admissibility) row(r int) []uint64 { return a.rows[r*a.words : (r+1)*a.words] }

// all returns a bitset of every output.
func (a *admissibility) all() []uint64 {
	acc := make([]uint64, a.words)
	for j := range a.p.Outputs {
		acc[j/64] |= 1 << (j % 64)
	}
	return acc
}

// lowest returns the output of acc's lowest set bit, the first admissible
// value in Outputs order.
func (a *admissibility) lowest(acc []uint64) (msg.Value, bool) {
	for w, x := range acc {
		if x != 0 {
			return a.p.Outputs[w*64+bits.TrailingZeros64(x)], true
		}
	}
	return msg.NoDecision, false
}

// containment appends the row of every configuration in Cnt(c) ∩ I to
// rows, in ContainmentSet order, for the c with π(c) = m whose process id
// proposes Inputs[digit[id]].
func (a *admissibility) containment(rows []int, m int, digit []int) []int {
	k := len(a.p.Inputs)
	// The sub-masks of m in increasing order.
	for s := 0; ; s = (s - m) & m {
		if at := a.first[s]; at >= 0 {
			code, w := 0, 1
			for q := uint(s); q != 0; q &= q - 1 {
				code += digit[bits.TrailingZeros(q)] * w
				w *= k
			}
			rows = append(rows, at+code)
		}
		if s == m {
			return rows
		}
	}
}

// IsTrivial reports whether the problem is trivial: some value is
// admissible under every input configuration (§4.1). It returns the
// always-admissible witness when one exists.
func (p Problem) IsTrivial() (msg.Value, bool) {
	return p.admissibility().trivial()
}

func (a *admissibility) trivial() (msg.Value, bool) {
	acc := a.all()
	for r := range a.configs {
		a.and(acc, r)
	}
	return a.lowest(acc)
}

// and narrows acc to the values row r admits.
func (a *admissibility) and(acc []uint64, r int) {
	for w, x := range a.row(r) {
		acc[w] &= x
	}
}

// CCWitness explains a containment-condition failure: a configuration c
// whose containment set admits no common value, plus two contained
// configurations with disjoint admissible sets when such a pair exists
// (the shape of the Theorem 5 argument).
type CCWitness struct {
	C InputConfig
	// Disjoint pair within Cnt(C), when found.
	C1, C2     InputConfig
	Val1, Val2 []msg.Value
	HasPair    bool
}

// String renders the witness in the style of the Theorem 5 proof.
func (w CCWitness) String() string {
	if !w.HasPair {
		return fmt.Sprintf("⋂ val over Cnt(%v) = ∅", w.C)
	}
	return fmt.Sprintf("%v contains %v (val=%v) and %v (val=%v), which share no admissible value",
		w.C, w.C1, w.Val1, w.C2, w.Val2)
}

// CCResult is the outcome of the containment-condition check.
type CCResult struct {
	Holds bool
	// Gamma maps every configuration in I (by Key) to a value in
	// ⋂_{c' ∈ Cnt(c)} val(c') — the Turing-computable selector of
	// Definition 3, materialized.
	Gamma map[string]msg.Value
	// Witness is set when CC fails.
	Witness *CCWitness
}

// CheckCC decides the containment condition (Definition 3) by exact
// enumeration and synthesizes Γ when it holds.
func (p Problem) CheckCC() CCResult {
	return p.admissibility().checkCC()
}

// checkCC ANDs, for every configuration c, the rows of its containment
// set; Γ(c) is the first value left in Outputs order.
func (a *admissibility) checkCC() CCResult {
	p := a.p
	k := len(p.Inputs)
	gamma := make(map[string]msg.Value, len(a.configs))
	digit := make([]int, p.N)
	var cnt []int
	acc := make([]uint64, a.words)
	all := a.all()
	for m, at := range a.first {
		if at < 0 {
			continue
		}
		for idx, size := 0, pow(k, bits.OnesCount(uint(m))); idx < size; idx++ {
			x := idx
			for q := uint(m); q != 0; q &= q - 1 {
				digit[bits.TrailingZeros(q)] = x % k
				x /= k
			}
			cnt = a.containment(cnt[:0], m, digit)
			copy(acc, all)
			for _, r := range cnt {
				a.and(acc, r)
			}
			c := a.configs[at+idx]
			pick, ok := a.lowest(acc)
			if !ok {
				return CCResult{Holds: false, Witness: p.ccWitness(c, c.ContainmentSet(p.N-p.T))}
			}
			gamma[c.Key()] = pick
		}
	}
	return CCResult{Holds: true, Gamma: gamma}
}

func (p Problem) ccWitness(c InputConfig, cnt []InputConfig) *CCWitness {
	w := &CCWitness{C: c}
	for i := range cnt {
		for j := i + 1; j < len(cnt); j++ {
			vi, vj := p.AdmissibleSet(cnt[i]), p.AdmissibleSet(cnt[j])
			if disjoint(vi, vj) {
				w.C1, w.C2, w.Val1, w.Val2, w.HasPair = cnt[i], cnt[j], vi, vj, true
				return w
			}
		}
	}
	return w
}

func disjoint(a, b []msg.Value) bool {
	set := make(map[msg.Value]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		if set[v] {
			return false
		}
	}
	return true
}

// Solvability is the Theorem 4 verdict for a problem.
type Solvability struct {
	Problem       string
	N, T          int
	Trivial       bool
	TrivialValue  msg.Value
	CC            bool
	CCWitness     *CCWitness
	Authenticated bool
	// Unauthenticated additionally requires n > 3t (Theorem 4), except for
	// trivial problems, which are solvable without communication anywhere.
	Unauthenticated bool
}

// Solve evaluates the general solvability theorem for p.
func (p Problem) Solve() Solvability {
	s, _ := p.SolveCC()
	return s
}

// SolveCC is Solve together with the containment-condition result — Γ
// included — for callers that go on to build a protocol from it
// (GammaFunc). Triviality and CC are read off one admissibility table; a
// trivial problem is decided without the CC pass and comes with the zero
// CCResult.
func (p Problem) SolveCC() (Solvability, CCResult) {
	s := Solvability{Problem: p.Name, N: p.N, T: p.T}
	a := p.admissibility()
	if v, ok := a.trivial(); ok {
		// A trivial problem is solvable everywhere: decide v immediately.
		s.Trivial, s.TrivialValue = true, v
		s.CC = true
		s.Authenticated, s.Unauthenticated = true, true
		return s, CCResult{}
	}
	cc := a.checkCC()
	s.CC, s.CCWitness = cc.Holds, cc.Witness
	s.Authenticated = cc.Holds
	s.Unauthenticated = cc.Holds && p.N > 3*p.T
	return s, cc
}

// GammaFunc materializes Γ as a selector over decided I_n vectors, for use
// with Algorithm 2 (reduction.FromIC). An entry outside V_I — a faulty
// process's slot filled with a broadcast default — is clamped to
// Inputs[0]. That is sound: IC-Validity makes every correct process's
// entry its genuine proposal, so only faulty entries are clamped, the
// clamped vector still contains the real input configuration c, and Γ of
// it is admissible under every configuration it contains, c among them.
func (p Problem) GammaFunc(cc CCResult) (func(vec []msg.Value) msg.Value, error) {
	if !cc.Holds {
		return nil, fmt.Errorf("problem %s: containment condition fails; no Γ exists", p.Name)
	}
	inDomain := make(map[msg.Value]bool, len(p.Inputs))
	for _, v := range p.Inputs {
		inDomain[v] = true
	}
	clampTo := p.Inputs[0]
	all := proc.Universe(p.N)
	return func(vec []msg.Value) msg.Value {
		clamped := make([]msg.Value, p.N)
		for i := 0; i < p.N; i++ {
			if i < len(vec) && inDomain[vec[i]] {
				clamped[i] = vec[i]
			} else {
				clamped[i] = clampTo
			}
		}
		v, ok := cc.Gamma[InputConfig{n: p.N, present: all, vals: clamped}.Key()]
		if !ok {
			// Unreachable when cc covers I; stay total and deterministic.
			return clampTo
		}
		return v
	}, nil
}
