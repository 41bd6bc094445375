package adversary

import (
	"fmt"
	"sort"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// MachineSpec is the replayable description of a Byzantine machine from
// the strategy library: kind plus seed fully determine its behavior at a
// given (n, id, horizon). Specs are what make campaign counterexamples
// with Byzantine processes serializable, replayable, and shrinkable.
type MachineSpec struct {
	Kind string `json:"kind"`
	Seed int64  `json:"seed"`
}

// The machine kinds of the library.
const (
	KindSilent     = "silent"
	KindChaos      = "chaos"
	KindEquivocate = "equivocate"
	KindTwoFaced   = "two-faced"
)

// build constructs a fresh machine from the spec. Machines are stateful,
// so every run must build its own. Unknown kinds degrade to silence —
// specs are produced only by this package, so that is a defensive default,
// not an expected path. Two-faced machines need env.Factory; without one
// they degrade to silence too.
func (s MachineSpec) build(env Env, id proc.ID) sim.Machine {
	switch s.Kind {
	case KindChaos:
		return &chaosMachine{n: env.N, id: id, seed: s.Seed, quiet: env.Horizon}
	case KindEquivocate:
		return &equivocator{n: env.N, id: id, seed: s.Seed, quiet: env.Horizon}
	case KindTwoFaced:
		if env.Factory != nil {
			return newTwoFaced(env, id, s.Seed)
		}
	}
	return sim.Silent{}
}

// ByzEntry assigns a replayable machine spec to one corrupted process.
type ByzEntry struct {
	ID   proc.ID     `json:"id"`
	Spec MachineSpec `json:"machine"`
}

// sortEntries orders entries by process ID, in place, and returns them.
func sortEntries(es []ByzEntry) []ByzEntry {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	return es
}

// speccedPlan is the hook through which Extract learns how to rebuild a
// plan's Byzantine machines. All plans produced by this package's
// Byzantine strategies implement it; combinator plans delegate.
type speccedPlan interface {
	Specs() []ByzEntry
}

// specsOf returns the plan's machine specs, or nil when the plan carries
// none (pure omission plans) or is not replayable (foreign plans).
func specsOf(plan sim.FaultPlan) []ByzEntry {
	if sp, ok := plan.(speccedPlan); ok {
		return sp.Specs()
	}
	return nil
}

// byzPlan couples a ByzantinePlan with the specs that rebuild it.
type byzPlan struct {
	sim.ByzantinePlan
	specs []ByzEntry
}

// Specs implements the replayable-machines hook.
func (p byzPlan) Specs() []ByzEntry { return p.specs }

// byzStrategy corrupts a random subset of at most t processes and replaces
// each with a freshly seeded machine of the given kind.
func byzStrategy(name, kind string) Strategy {
	return Strategy{Name: name, Build: func(seed int64, env Env) sim.FaultPlan {
		r := NewStream(seed, name)
		f := randomFaulty(&r, env.N, env.T)
		machines := make(map[proc.ID]sim.Machine, f.Len())
		entries := make([]ByzEntry, 0, f.Len())
		for _, id := range f.Members() {
			spec := MachineSpec{Kind: kind, Seed: r.Int63()}
			machines[id] = spec.build(env, id)
			entries = append(entries, ByzEntry{ID: id, Spec: spec})
		}
		return byzPlan{ByzantinePlan: sim.ByzantinePlan{Machines: machines}, specs: entries}
	}}
}

// Chaos replaces a random subset of at most t processes with randomized
// Byzantine chatterers: each round they send deterministic-pseudo-random
// bit payloads — sometimes deliberately malformed — to a pseudo-random
// subset of peers.
func Chaos() Strategy { return byzStrategy("chaos", KindChaos) }

// Equivocate replaces a random subset of at most t processes with
// equivocators: every round each one tells a fixed pseudo-random half of
// Π "0" and the other half "1".
func Equivocate() Strategy { return byzStrategy("equivocate", KindEquivocate) }

// TwoFaced replaces a random subset of at most t processes with two-faced
// machines: each runs two honest copies of the protocol machine with
// opposite proposals and shows every peer a consistent view of one copy —
// the classical equivocation that is honest to either side in isolation.
func TwoFaced() Strategy { return byzStrategy("two-faced", KindTwoFaced) }

// chaosMachine is the randomized Byzantine chatterer (ported from the
// stress suite): each round it sends a deterministic-pseudo-random payload
// to a pseudo-random subset of peers, occasionally malformed on purpose.
type chaosMachine struct {
	n     int
	id    proc.ID
	seed  int64
	quiet int // stop after this many rounds to bound the run
}

var _ sim.Machine = (*chaosMachine)(nil)

func (m *chaosMachine) emit(round int) []sim.Outgoing {
	var out []sim.Outgoing
	for p := 0; p < m.n; p++ {
		if proc.ID(p) == m.id {
			continue
		}
		probe := msg.Message{Sender: m.id, Receiver: proc.ID(p), Round: round}
		if !coin(m.seed, probe, 60) {
			continue
		}
		payload := string(msg.Bit(int(m.seed+int64(p)+int64(round)) % 2))
		if coin(m.seed+1, probe, 20) {
			payload = `{"garbage":` // malformed on purpose
		}
		out = append(out, sim.Outgoing{To: proc.ID(p), Payload: payload})
	}
	return out
}

// Init implements sim.Machine.
func (m *chaosMachine) Init() []sim.Outgoing { return m.emit(1) }

// Step implements sim.Machine.
func (m *chaosMachine) Step(round int, _ []msg.Message) []sim.Outgoing {
	if round >= m.quiet {
		return nil
	}
	return m.emit(round + 1)
}

// Decision implements sim.Machine.
func (m *chaosMachine) Decision() (msg.Value, bool) { return msg.NoDecision, false }

// Quiescent implements sim.Machine.
func (m *chaosMachine) Quiescent() bool { return false }

// equivocator tells a fixed pseudo-random half of Π "0" and the rest "1",
// every round. The split is per-execution, not per-round: each peer sees a
// consistent story, which is what makes equivocation hard to detect
// without signatures or cross-checking.
type equivocator struct {
	n     int
	id    proc.ID
	seed  int64
	quiet int
}

var _ sim.Machine = (*equivocator)(nil)

func (m *equivocator) emit() []sim.Outgoing {
	out := make([]sim.Outgoing, 0, m.n-1)
	for p := 0; p < m.n; p++ {
		if proc.ID(p) == m.id {
			continue
		}
		side := msg.Message{Sender: m.id, Receiver: proc.ID(p)} // round 0: split is round-invariant
		v := msg.Zero
		if coin(m.seed, side, 50) {
			v = msg.One
		}
		out = append(out, sim.Outgoing{To: proc.ID(p), Payload: string(v)})
	}
	return out
}

// Init implements sim.Machine.
func (m *equivocator) Init() []sim.Outgoing { return m.emit() }

// Step implements sim.Machine.
func (m *equivocator) Step(round int, _ []msg.Message) []sim.Outgoing {
	if round >= m.quiet {
		return nil
	}
	return m.emit()
}

// Decision implements sim.Machine.
func (m *equivocator) Decision() (msg.Value, bool) { return msg.NoDecision, false }

// Quiescent implements sim.Machine.
func (m *equivocator) Quiescent() bool { return false }

// twoFaced runs two honest copies of the protocol machine with opposite
// proposals, feeds both the full received view, and routes each peer the
// messages of one fixed copy (chosen pseudo-randomly per peer). Either
// side of the split observes a perfectly protocol-conformant process.
type twoFaced struct {
	id   proc.ID
	a, b sim.Machine
	seed int64
}

var _ sim.Machine = (*twoFaced)(nil)

func newTwoFaced(env Env, id proc.ID, seed int64) *twoFaced {
	return &twoFaced{
		id:   id,
		a:    env.Factory(id, msg.Zero),
		b:    env.Factory(id, msg.One),
		seed: seed,
	}
}

// sideA reports whether peer p is shown copy a's behavior.
func (m *twoFaced) sideA(p proc.ID) bool {
	return coin(m.seed, msg.Message{Sender: m.id, Receiver: p}, 50)
}

func (m *twoFaced) route(outA, outB []sim.Outgoing) []sim.Outgoing {
	var out []sim.Outgoing
	for _, o := range outA {
		if m.sideA(o.To) {
			out = append(out, o)
		}
	}
	for _, o := range outB {
		if !m.sideA(o.To) {
			out = append(out, o)
		}
	}
	return out
}

// Init implements sim.Machine.
func (m *twoFaced) Init() []sim.Outgoing { return m.route(m.a.Init(), m.b.Init()) }

// Step implements sim.Machine.
func (m *twoFaced) Step(round int, received []msg.Message) []sim.Outgoing {
	// Each copy gets its own slice: machines may retain what they are given.
	recvB := append([]msg.Message(nil), received...)
	return m.route(m.a.Step(round, received), m.b.Step(round, recvB))
}

// Decision implements sim.Machine.
func (m *twoFaced) Decision() (msg.Value, bool) { return msg.NoDecision, false }

// Quiescent implements sim.Machine.
func (m *twoFaced) Quiescent() bool { return m.a.Quiescent() && m.b.Quiescent() }

// String renders a spec for diagnostics.
func (s MachineSpec) String() string { return fmt.Sprintf("%s(seed=%d)", s.Kind, s.Seed) }
