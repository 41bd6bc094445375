package validity_test

import (
	"expensive/internal/msg"
	"expensive/internal/validity"
)

// This file keeps the enumerating containment-condition checker that
// Problem.CheckCC replaced, verbatim but for being a function of p: every
// configuration's containment set is materialised and every admissible
// value is asked of the predicate again for every configuration it is
// checked under. FuzzCheckCCMatchesReference holds the admissibility
// table to it. It also keeps Interactive's decoding predicate, which
// TestInteractiveMatchesReference holds the in-place one to.

// refInteractive is the predicate Interactive(n, t) had before it read the
// vector memo in place: decode a copy, build the full configuration, and
// ask whether it contains c.
func refInteractive(n int) func(c validity.InputConfig, v msg.Value) bool {
	return func(c validity.InputConfig, v msg.Value) bool {
		vec, err := msg.DecodeVector(v)
		if err != nil || len(vec) != n {
			return false
		}
		return validity.FullConfig(vec).Contains(c)
	}
}

// refIsTrivial is the reference Problem.IsTrivial.
func refIsTrivial(p validity.Problem) (msg.Value, bool) {
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

// refCheckCC is the reference Problem.CheckCC.
func refCheckCC(p validity.Problem) validity.CCResult {
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
			return validity.CCResult{Holds: false, Witness: refCCWitness(p, c, cnt)}
		}
		gamma[c.Key()] = pick
	}
	return validity.CCResult{Holds: true, Gamma: gamma}
}

func refCCWitness(p validity.Problem, c validity.InputConfig, cnt []validity.InputConfig) *validity.CCWitness {
	w := &validity.CCWitness{C: c}
	for i := range cnt {
		for j := i + 1; j < len(cnt); j++ {
			vi, vj := refAdmissibleSet(p, cnt[i]), refAdmissibleSet(p, cnt[j])
			if refDisjoint(vi, vj) {
				w.C1, w.C2, w.Val1, w.Val2, w.HasPair = cnt[i], cnt[j], vi, vj, true
				return w
			}
		}
	}
	return w
}

// refAdmissibleSet returns val(c) as a slice in Outputs order.
func refAdmissibleSet(p validity.Problem, c validity.InputConfig) []msg.Value {
	var out []msg.Value
	for _, v := range p.Outputs {
		if p.Admissible(c, v) {
			out = append(out, v)
		}
	}
	return out
}

func refDisjoint(a, b []msg.Value) bool {
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
