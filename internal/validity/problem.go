package validity

import (
	"fmt"

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
// subset of Π of size at least n-t. Deterministic order.
func (p Problem) Configs() []InputConfig {
	var out []InputConfig
	proc.Universe(p.N).Subsets(func(s proc.Set) bool {
		if s.Len() < p.N-p.T {
			return true
		}
		members := s.Members()
		total := 1
		for range members {
			total *= len(p.Inputs)
		}
		for idx := 0; idx < total; idx++ {
			assign := make(map[proc.ID]msg.Value, len(members))
			x := idx
			for _, id := range members {
				assign[id] = p.Inputs[x%len(p.Inputs)]
				x /= len(p.Inputs)
			}
			c, err := NewConfig(p.N, assign)
			if err == nil {
				out = append(out, c)
			}
		}
		return true
	})
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

// IsTrivial reports whether the problem is trivial: some value is
// admissible under every input configuration (§4.1). It returns the
// always-admissible witness when one exists.
func (p Problem) IsTrivial() (msg.Value, bool) {
	configs := p.Configs()
	for _, v := range p.Outputs {
		ok := true
		for _, c := range configs {
			if !p.Admissible(c, v) {
				ok = false
				break
			}
		}
		if ok {
			return v, true
		}
	}
	return msg.NoDecision, false
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
	gamma := make(map[string]msg.Value)
	for _, c := range p.Configs() {
		cnt := c.ContainmentSet(p.N - p.T)
		var pick msg.Value
		found := false
		for _, v := range p.Outputs {
			ok := true
			for _, sub := range cnt {
				if !p.Admissible(sub, v) {
					ok = false
					break
				}
			}
			if ok {
				pick, found = v, true
				break
			}
		}
		if !found {
			return CCResult{Holds: false, Witness: p.ccWitness(c, cnt)}
		}
		gamma[c.Key()] = pick
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

// SolveCC is Solve together with the containment-condition result its
// one enumeration produced — Γ included — for callers that go on to build
// a protocol from it (GammaFunc). A trivial problem is decided without
// the enumeration and comes with the zero CCResult.
func (p Problem) SolveCC() (Solvability, CCResult) {
	s := Solvability{Problem: p.Name, N: p.N, T: p.T}
	if v, ok := p.IsTrivial(); ok {
		// A trivial problem is solvable everywhere: decide v immediately.
		s.Trivial, s.TrivialValue = true, v
		s.CC = true
		s.Authenticated, s.Unauthenticated = true, true
		return s, CCResult{}
	}
	cc := p.CheckCC()
	s.CC, s.CCWitness = cc.Holds, cc.Witness
	s.Authenticated = cc.Holds
	s.Unauthenticated = cc.Holds && p.N > 3*p.T
	return s, cc
}

// GammaFunc materializes Γ as a selector over decided I_n vectors, for use
// with Algorithm 2 (reduction.FromIC). Vector entries outside V_I —
// possible for faulty processes' slots filled with a broadcast default —
// are clamped to Inputs[0], which is sound because IC-Validity guarantees
// the entries of correct processes are genuine proposals and Γ(vec) is
// admissible for every contained configuration either way (vec ⊒ c is
// preserved under clamping faulty-only entries... the clamped vector still
// contains the real input configuration c).
func (p Problem) GammaFunc(cc CCResult) (func(vec []msg.Value) msg.Value, error) {
	if !cc.Holds {
		return nil, fmt.Errorf("problem %s: containment condition fails; no Γ exists", p.Name)
	}
	inDomain := make(map[msg.Value]bool, len(p.Inputs))
	for _, v := range p.Inputs {
		inDomain[v] = true
	}
	clampTo := p.Inputs[0]
	return func(vec []msg.Value) msg.Value {
		clamped := make([]msg.Value, p.N)
		for i := 0; i < p.N; i++ {
			if i < len(vec) && inDomain[vec[i]] {
				clamped[i] = vec[i]
			} else {
				clamped[i] = clampTo
			}
		}
		v, ok := cc.Gamma[FullConfig(clamped).Key()]
		if !ok {
			// Unreachable when cc covers I; stay total and deterministic.
			return clampTo
		}
		return v
	}, nil
}
