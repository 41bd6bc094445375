package adversary

import (
	"fmt"

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
// so every run must build its own. Every machine it returns carries s
// (the specced interface), which is how Extract describes a plan's
// Byzantine processes. Unknown kinds degrade to silence — specs are
// produced only by this package, so that is a defensive default, not an
// expected path. Two-faced machines need env.Factory; without one they
// degrade to silence too.
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
	return silent{s: s}
}

// specced is a machine that knows the spec it was built from. Every
// machine build makes implements it; a machine made any other way (a
// hand-written one, or sim.Silent itself) has no replayable spec.
type specced interface {
	spec() MachineSpec
}

// silent is sim.Silent carrying the spec it was built from: the machine
// of an unknown kind, or of a two-faced spec with no factory to run.
type silent struct {
	sim.Silent
	s MachineSpec
}

func (m silent) spec() MachineSpec { return m.s }

// ByzEntry assigns a replayable machine spec to one corrupted process.
type ByzEntry struct {
	ID   proc.ID     `json:"id"`
	Spec MachineSpec `json:"machine"`
}

// byzStrategy corrupts a random subset of at most t processes and replaces
// each with a freshly seeded machine of the given kind.
func byzStrategy(name, kind string) Strategy {
	return Strategy{Name: name, Build: func(seed int64, env Env) sim.FaultPlan {
		r := NewStream(seed, name)
		f := randomFaulty(&r, env.N, env.T)
		machines := make(map[proc.ID]sim.Machine, f.Len())
		for _, id := range f.Members() {
			machines[id] = MachineSpec{Kind: kind, Seed: r.Int63()}.build(env, id)
		}
		return sim.ByzantinePlan{Machines: machines}
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

func (m *chaosMachine) spec() MachineSpec { return MachineSpec{Kind: KindChaos, Seed: m.seed} }

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

func (m *equivocator) spec() MachineSpec { return MachineSpec{Kind: KindEquivocate, Seed: m.seed} }

// twoFaced runs two honest copies of the protocol machine with opposite
// proposals, feeds both the full received view, and routes each peer the
// messages of one fixed copy (chosen pseudo-randomly per peer). Either
// side of the split observes a perfectly protocol-conformant process.
type twoFaced struct {
	id   proc.ID
	n    int
	a, b sim.Machine
	seed int64
	// each holds one copy's output expanded per peer (sim.Expand) while
	// route picks from it; out is the slice route lends.
	each, out []sim.Outgoing
}

var _ sim.Machine = (*twoFaced)(nil)

func newTwoFaced(env Env, id proc.ID, seed int64) *twoFaced {
	return &twoFaced{
		id:   id,
		n:    env.N,
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
	out := m.out[:0]
	m.each = sim.Expand(m.each[:0], outA, m.n, m.id)
	for _, o := range m.each {
		if m.sideA(o.To) {
			out = append(out, o)
		}
	}
	m.each = sim.Expand(m.each[:0], outB, m.n, m.id)
	for _, o := range m.each {
		if !m.sideA(o.To) {
			out = append(out, o)
		}
	}
	m.out = out
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

func (m *twoFaced) spec() MachineSpec { return MachineSpec{Kind: KindTwoFaced, Seed: m.seed} }

// String renders a spec for diagnostics.
func (s MachineSpec) String() string { return fmt.Sprintf("%s(seed=%d)", s.Kind, s.Seed) }
