// Package validity implements the validity-property formalism of §4.1 and
// the solvability machinery of §5: input configurations, the containment
// relation ⊒ and containment sets Cnt(c), triviality, the containment
// condition CC (Definition 3), and synthesis of the selector Γ that
// Algorithm 2 turns into an actual protocol.
//
// All checkers are exact finite-domain enumerations: for the small n and
// finite value sets where the solvability experiments run, every input
// configuration in I is enumerated and every admissibility constraint is
// checked — the general solvability theorem (Theorem 4) evaluated, not
// approximated.
package validity

import (
	"fmt"
	"strconv"
	"strings"

	"expensive/internal/msg"
	"expensive/internal/proc"
)

// InputConfig is an assignment of proposals to the correct processes: a
// tuple of process–proposal pairs with n-t <= |pairs| <= n, each pair
// bound to a distinct process (§4.1).
type InputConfig struct {
	n       int
	present proc.Set
	vals    []msg.Value
}

// NewConfig builds an input configuration over Π = {0..n-1} from an
// explicit assignment. Size constraints (|c| >= n-t) are the problem's
// concern and checked by Problem.Configs; here any subset is accepted.
func NewConfig(n int, assign map[proc.ID]msg.Value) (InputConfig, error) {
	c := InputConfig{n: n, vals: make([]msg.Value, n)}
	for id, v := range assign {
		if id < 0 || int(id) >= n {
			return InputConfig{}, fmt.Errorf("config: process %v outside Π (n=%d)", id, n)
		}
		c.present = c.present.Add(id)
		c.vals[id] = v
	}
	return c, nil
}

// FullConfig builds the configuration in I_n with the given proposals
// (π(c) = Π).
func FullConfig(proposals []msg.Value) InputConfig {
	c := InputConfig{n: len(proposals), present: proc.Universe(len(proposals)), vals: append([]msg.Value{}, proposals...)}
	return c
}

// N returns the system size the configuration lives in.
func (c InputConfig) N() int { return c.n }

// Pi returns π(c), the set of correct processes.
func (c InputConfig) Pi() proc.Set { return c.present }

// Size returns |c|, the number of process–proposal pairs.
func (c InputConfig) Size() int { return c.present.Len() }

// Proposal returns c[i], reporting absence for processes outside π(c).
func (c InputConfig) Proposal(id proc.ID) (msg.Value, bool) {
	if !c.present.Contains(id) {
		return msg.NoDecision, false
	}
	return c.vals[id], true
}

// Full reports whether c ∈ I_n.
func (c InputConfig) Full() bool { return c.present.Len() == c.n }

// Vector returns the proposal vector of a full configuration.
func (c InputConfig) Vector() ([]msg.Value, error) {
	if !c.Full() {
		return nil, fmt.Errorf("config: not full (|π(c)|=%d, n=%d)", c.Size(), c.n)
	}
	return append([]msg.Value{}, c.vals...), nil
}

// Restrict returns the sub-configuration of c on s ⊆ π(c).
func (c InputConfig) Restrict(s proc.Set) (InputConfig, error) {
	if !s.SubsetOf(c.present) {
		return InputConfig{}, fmt.Errorf("config: %v not a subset of π(c)=%v", s, c.present)
	}
	out := InputConfig{n: c.n, present: s, vals: make([]msg.Value, c.n)}
	for _, id := range s.Members() {
		out.vals[id] = c.vals[id]
	}
	return out, nil
}

// Contains implements the containment relation of §4.2:
// c ⊒ c2 iff π(c) ⊇ π(c2) and the shared processes agree on proposals.
func (c InputConfig) Contains(c2 InputConfig) bool {
	if c.n != c2.n || !c2.present.SubsetOf(c.present) {
		return false
	}
	for _, id := range c2.present.Members() {
		if c.vals[id] != c2.vals[id] {
			return false
		}
	}
	return true
}

// Key is a canonical string identity usable as a map key: "id=value;"
// for every process of π(c) in increasing order.
func (c InputConfig) Key() string {
	var b strings.Builder
	b.Grow(len(`0=0;`) * len(c.vals)) // all of Π, one-digit ids, one-byte values
	for id, v := range c.vals {
		if c.present.Contains(proc.ID(id)) {
			b.WriteString(strconv.Itoa(id))
			b.WriteByte('=')
			b.WriteString(string(v))
			b.WriteByte(';')
		}
	}
	return b.String()
}

// String renders the configuration like the paper's tuples.
func (c InputConfig) String() string {
	parts := make([]string, 0, c.Size())
	for _, id := range c.present.Members() {
		parts = append(parts, fmt.Sprintf("(%s,%s)", id, c.vals[id]))
	}
	return "⟨" + strings.Join(parts, ",") + "⟩"
}

// Unanimous returns the common proposal when all present processes agree.
func (c InputConfig) Unanimous() (msg.Value, bool) {
	first := c.present.Min()
	if first < 0 {
		return msg.NoDecision, false
	}
	v := c.vals[first]
	for id, u := range c.vals {
		if u != v && c.present.Contains(proc.ID(id)) {
			return msg.NoDecision, false
		}
	}
	return v, true
}

// ContainmentSet enumerates Cnt(c) ∩ I — every configuration contained in
// c with at least minSize pairs (minSize = n-t for the paper's I). The
// enumeration includes c itself (containment is reflexive).
func (c InputConfig) ContainmentSet(minSize int) []InputConfig {
	var out []InputConfig
	c.present.Subsets(func(s proc.Set) bool {
		if s.Len() >= minSize {
			sub, err := c.Restrict(s)
			if err == nil {
				out = append(out, sub)
			}
		}
		return true
	})
	return out
}
