// Package eig implements unauthenticated interactive consistency by
// exponential information gathering (EIG) — the classical unrolling of the
// Pease–Shostak–Lamport oral-messages algorithm [78], as presented by
// Lynch [82]. It tolerates t Byzantine faults when n > 3t, which §5.2
// shows is exactly the unauthenticated solvability frontier, and runs for
// t+1 rounds (optimal for deterministic algorithms [52, 54]).
//
// Every process maintains an EIG tree: nodes are labeled by sequences of
// distinct process IDs of length <= t+1. In round r each process relays
// every level-(r-1) entry whose label does not contain itself; an entry
// (σ, v) received from p_j populates node σ·j. After round t+1 the tree is
// resolved bottom-up by strict majority, and entry j of the decided vector
// is the resolved value of subtree ⟨j⟩. For n > 3t all correct processes
// resolve every subtree identically, and subtree ⟨j⟩ of a correct p_j
// resolves to p_j's proposal — IC-Validity.
//
// The message size is exponential in t (levels have n·(n-1)···(n-l+1)
// nodes); this substrate is intended for the small configurations where
// the solvability experiments run it, exactly like the original algorithm.
//
// Wire format: a relay is the JSON object {"P":[{"L":[0,3],"V":"1"}]} —
// one (label, value) pair per relayed node, in label order. The bytes are
// pinned by the root package's TestWirePinned.
package eig

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Config parameterizes an EIG interactive-consistency instance.
type Config struct {
	N int
	T int
	// Default stands in for missing values (silent or garbled relays).
	Default msg.Value
}

// RoundBound returns the decision round: t+1.
func RoundBound(t int) int { return t + 1 }

// Validate checks the resilience precondition n > 3t — the unauthenticated
// solvability frontier (Theorem 4 / [55, 78]).
func (c Config) Validate() error {
	if c.N <= 3*c.T {
		return fmt.Errorf("eig: requires n > 3t, got n=%d t=%d", c.N, c.T)
	}
	return nil
}

// New returns the honest-machine factory. The decision is the canonical
// encoding of the resolved n-vector (IC semantics); consensus variants are
// obtained by composing with reduction.FromIC.
func New(cfg Config) sim.Factory {
	// The tree's shape depends on (n, t) alone: the first machine builds
	// it, and from then on it is immutable and shared by every machine of
	// the factory, on any goroutine.
	var (
		once sync.Once
		sh   *shape
	)
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		once.Do(func() { sh = newShape(cfg.N, cfg.T) })
		m := &machine{cfg: cfg, shape: sh, id: id, val: make([]msg.Value, sh.nodes()), set: make([]bool, sh.nodes())}
		m.val[0], m.set[0] = proposal, true
		return m
	}
}

// shape is the EIG tree of one (n, t) without its values. Nodes are
// numbered level by level — level l holds the labels of length l — and in
// lexicographic label order within a level, so a level is one index range
// and relaying it in index order relays it in label order. The root ε is
// node 0.
type shape struct {
	n int
	// first[l] is the first node of level l, for l = 0..t+2: first[t+1]
	// counts the inner nodes and first[t+2] all nodes. A level whose
	// labels would need more than n distinct IDs is empty.
	first []int
	// child[x*n+j] is the node σ·j of inner node x = σ, or -1 when j ∈ σ.
	// Leaves (level t+1) have no row.
	child []int32
	// heads[headAt[x]:headAt[x+1]] is `{"L":[σ],"V":`, the bytes the
	// relayed pair of inner node x = σ starts with.
	heads  string
	headAt []int32
}

func newShape(n, t int) *shape {
	s := &shape{n: n, first: []int{0, 1}, headAt: []int32{0}}
	var heads []byte
	nodes := 1
	level := [][]int{{}} // the current level's labels, in order
	for l := 0; l <= t; l++ {
		var next [][]int
		for _, label := range level {
			heads = append(heads, `{"L":[`...)
			for i, j := range label {
				if i > 0 {
					heads = append(heads, ',')
				}
				heads = strconv.AppendInt(heads, int64(j), 10)
			}
			heads = append(heads, `],"V":`...)
			s.headAt = append(s.headAt, int32(len(heads)))
			for j := 0; j < n; j++ {
				if contains(label, j) {
					s.child = append(s.child, -1)
					continue
				}
				s.child = append(s.child, int32(nodes))
				nodes++
				if l < t { // leaves relay nothing and need no label
					next = append(next, append(label[:l:l], j))
				}
			}
		}
		level = next
		s.first = append(s.first, nodes)
	}
	s.heads = string(heads)
	return s
}

func (s *shape) nodes() int { return s.first[len(s.first)-1] }

// inner counts the nodes that have a child row and a head: every level
// but the last.
func (s *shape) inner() int { return len(s.headAt) - 1 }

// down returns the node σ·j below node x = σ, or -1 when there is none:
// x is already -1 or a leaf, j is outside 0..n-1, or j ∈ σ. Walking a
// label down from the root is therefore the whole label check — range,
// distinctness and depth.
func (s *shape) down(x, j int) int {
	if x < 0 || x >= s.inner() || j < 0 || j >= s.n {
		return -1
	}
	return int(s.child[x*s.n+j])
}

type machine struct {
	sim.DecideOnce
	cfg Config
	*shape
	id proc.ID

	// val[x] is the value stored at node x once set[x]; the first write
	// wins.
	val []msg.Value
	set []bool

	out sim.Broadcast
	// buf is the body being written, reused from round to round.
	buf []byte
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
// shared and read-only.
var decodePayload = msg.CachedDecoder[payload]()

func contains(label []int, id int) bool {
	for _, x := range label {
		if x == id {
			return true
		}
	}
	return false
}

// store writes v at node x unless an earlier write holds it.
func (m *machine) store(x int, v msg.Value) {
	if !m.set[x] {
		m.val[x], m.set[x] = v, true
	}
}

// broadcastLevel relays every node σ of the level with i ∉ σ as the pair
// (σ, val(σ)) — msg.Encode(payload{P: pairs}), written directly. The level
// is complete when it is relayed: the root holds the proposal, and Step
// fills a level before relaying it.
func (m *machine) broadcastLevel(level int) []sim.Outgoing {
	const open = `{"P":[`
	lo, hi := m.first[level], m.first[level+1]
	// Room for the level's heads and a one-byte value each.
	size := len(open) + int(m.headAt[hi]-m.headAt[lo]) + (hi-lo)*len(`"0"},`)
	b := append(slices.Grow(m.buf[:0], size), open...)
	for x := lo; x < hi; x++ {
		own := m.down(x, int(m.id))
		if own < 0 {
			continue
		}
		if len(b) > len(open) {
			b = append(b, ',')
		}
		b = append(b, m.heads[m.headAt[x]:m.headAt[x+1]]...)
		b = msg.AppendString(b, string(m.val[x]))
		b = append(b, '}')
		// The channel model has no self-messages; deliver our own relay to
		// ourselves directly (node σ·i).
		m.store(own, m.val[x])
	}
	if len(b) == len(open) {
		m.buf = b
		return nil
	}
	m.buf = append(b, "]}"...)
	return m.out.Send(m.n, m.id, string(m.buf))
}

// Init implements sim.Machine: round 1 broadcasts the root value (own
// proposal) as the pair (ε, x_i).
func (m *machine) Init() []sim.Outgoing {
	return m.broadcastLevel(0)
}

// Step implements sim.Machine.
func (m *machine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.Quiescent() {
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
			// (σ, v) from p_j populates node σ·j.
			x := 0
			for _, j := range pr.L {
				x = m.down(x, j)
			}
			if x = m.down(x, int(rm.Sender)); x >= 0 {
				m.store(x, pr.V)
			}
		}
	}
	if round >= RoundBound(m.cfg.T) {
		m.Decide(m.resolve())
		return nil
	}
	// Fill missing level-round entries with the default so the level is
	// relayed complete.
	for x := m.first[round]; x < m.first[round+1]; x++ {
		m.store(x, m.cfg.Default)
	}
	return m.broadcastLevel(round)
}

// resolve resolves the tree bottom-up, in place: leaves keep their stored
// value (the default where nothing was stored); an inner node takes the
// strict majority of its resolved children, or the default when there is
// none. Entry j of the decision is the resolved ⟨j⟩.
func (m *machine) resolve() msg.Value {
	for x := m.inner(); x < m.nodes(); x++ {
		m.store(x, m.cfg.Default)
	}
	for x := m.inner() - 1; x >= 1; x-- {
		m.val[x] = m.majority(m.child[x*m.n : (x+1)*m.n])
	}
	vec := make([]msg.Value, m.n)
	for j := range vec {
		vec[j] = m.val[m.first[1]+j]
	}
	return msg.EncodeVector(vec)
}

// majority returns the value more than half of the children hold, or the
// default: one pass pairs off unequal values, which leaves a strict
// majority standing when there is one, and a second pass counts it.
func (m *machine) majority(children []int32) msg.Value {
	var cand msg.Value
	lead, total := 0, 0
	for _, c := range children {
		if c < 0 {
			continue
		}
		total++
		switch {
		case lead == 0:
			cand, lead = m.val[c], 1
		case m.val[c] == cand:
			lead++
		default:
			lead--
		}
	}
	count := 0
	for _, c := range children {
		if c >= 0 && m.val[c] == cand {
			count++
		}
	}
	if count*2 > total {
		return cand
	}
	return m.cfg.Default
}
