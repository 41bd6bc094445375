package eig_test

import (
	"sort"
	"strconv"
	"strings"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/eig"
	"expensive/internal/sim"
)

// The implementation that preceded the flat tree, verbatim (a string-keyed
// map for the tree, labels re-enumerated per Step, reflective encoding):
// the oracle TestEIGMatchesReference and FuzzEIGMatchesReference hold the
// product machine to, byte for byte.

// refNew is the reference honest-machine factory.
func refNew(cfg eig.Config) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &machine{cfg: cfg, id: id, proposal: proposal, val: map[string]msg.Value{"": proposal}}
	}
}

type machine struct {
	cfg      eig.Config
	id       proc.ID
	proposal msg.Value

	// val maps a label key ("3.0.5"; "" is the root ε) to the stored value.
	val map[string]msg.Value

	decided  bool
	decision msg.Value
	done     bool
}

var _ sim.Machine = (*machine)(nil)

type pair struct {
	L []int
	V msg.Value
}

type payload struct {
	P []pair
}

// decodePayload memoizes payload decoding (msg.CachedDecoder): level
// relays repeat the same bodies across probes. Decoded payloads are
// shared and read-only — labels are copied before extension.
var decodePayload = msg.CachedDecoder[payload]()

func key(label []int) string {
	parts := make([]string, len(label))
	for i, x := range label {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ".")
}

func contains(label []int, id int) bool {
	for _, x := range label {
		if x == id {
			return true
		}
	}
	return false
}

// labels enumerates all valid labels of the given length in lexicographic
// order (sequences of distinct IDs from 0..n-1).
func labels(n, length int) [][]int {
	if length == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, prefix := range labels(n, length-1) {
		for j := 0; j < n; j++ {
			if !contains(prefix, j) {
				lab := append(append([]int{}, prefix...), j)
				out = append(out, lab)
			}
		}
	}
	return out
}

func (m *machine) broadcastLevel(level int) []sim.Outgoing {
	var pairs []pair
	for _, lab := range labels(m.cfg.N, level) {
		if contains(lab, int(m.id)) {
			continue
		}
		v, ok := m.val[key(lab)]
		if !ok {
			v = m.cfg.Default
		}
		pairs = append(pairs, pair{L: lab, V: v})
		// The channel model has no self-messages; deliver our own relay to
		// ourselves directly (node σ·i).
		if level+1 <= m.cfg.T+1 {
			child := append(append([]int{}, lab...), int(m.id))
			if _, ok := m.val[key(child)]; !ok {
				m.val[key(child)] = v
			}
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	body := msg.Encode(payload{P: pairs})
	out := make([]sim.Outgoing, 0, m.cfg.N-1)
	for p := proc.ID(0); p < proc.ID(m.cfg.N); p++ {
		if p != m.id {
			out = append(out, sim.Outgoing{To: p, Payload: body})
		}
	}
	return out
}

// Init implements sim.Machine: round 1 broadcasts the root value (own
// proposal) as the pair (ε, x_i).
func (m *machine) Init() []sim.Outgoing {
	return m.broadcastLevel(0)
}

// Step implements sim.Machine.
func (m *machine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.done {
		return nil
	}
	for _, rm := range received {
		p, ok := decodePayload(rm.Payload)
		if !ok {
			continue
		}
		for _, pr := range p.P {
			if len(pr.L) != round-1 {
				continue
			}
			if !validLabel(pr.L, m.cfg.N) || contains(pr.L, int(rm.Sender)) {
				continue
			}
			child := append(append([]int{}, pr.L...), int(rm.Sender))
			if len(child) > m.cfg.T+1 {
				continue
			}
			k := key(child)
			if _, ok := m.val[k]; !ok {
				m.val[k] = pr.V
			}
		}
	}
	// Fill missing level-round entries with the default so later rounds
	// relay a complete level.
	for _, lab := range labels(m.cfg.N, round) {
		if len(lab) > m.cfg.T+1 {
			break
		}
		if _, ok := m.val[key(lab)]; !ok {
			m.val[key(lab)] = m.cfg.Default
		}
	}

	if round >= eig.RoundBound(m.cfg.T) {
		m.decide()
		return nil
	}
	return m.broadcastLevel(round)
}

func validLabel(lab []int, n int) bool {
	seen := make(map[int]bool, len(lab))
	for _, x := range lab {
		if x < 0 || x >= n || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

// resolve computes newval(σ) bottom-up: leaves keep their stored value;
// internal nodes take the strict majority of their resolved children, or
// the default when no strict majority exists.
func (m *machine) resolve(label []int) msg.Value {
	if len(label) == m.cfg.T+1 {
		if v, ok := m.val[key(label)]; ok {
			return v
		}
		return m.cfg.Default
	}
	counts := make(map[msg.Value]int)
	total := 0
	for j := 0; j < m.cfg.N; j++ {
		if contains(label, j) {
			continue
		}
		child := append(append([]int{}, label...), j)
		counts[m.resolve(child)]++
		total++
	}
	var best msg.Value
	bestCount := -1
	keys := make([]msg.Value, 0, len(counts))
	for v := range counts {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, v := range keys {
		if counts[v] > bestCount {
			best, bestCount = v, counts[v]
		}
	}
	if bestCount*2 > total {
		return best
	}
	return m.cfg.Default
}

func (m *machine) decide() {
	vec := make([]msg.Value, m.cfg.N)
	for j := 0; j < m.cfg.N; j++ {
		vec[j] = m.resolve([]int{j})
	}
	m.decision = msg.EncodeVector(vec)
	m.decided, m.done = true, true
}

// Decision implements sim.Machine.
func (m *machine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.decision, true
}

// Quiescent implements sim.Machine.
func (m *machine) Quiescent() bool { return m.done }
