package adversary

import (
	"fmt"
	"slices"

	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Env is the probe environment a strategy builds its fault plan for: the
// system parameters, the protocol's decision-round bound and the probe
// horizon, and the honest-machine factory (used by strategies that run
// honest machines adversarially, like TwoFaced).
type Env struct {
	N, T    int
	Rounds  int
	Horizon int
	Factory sim.Factory
}

// Strategy is a named, seed-deterministic generator of fault plans. The
// same (seed, Env) must always yield an identical adversary — that is what
// makes campaign reports reproducible and every found violation
// replayable from its seed alone.
type Strategy struct {
	Name string
	// Build derives the fault plan of one probe. It must corrupt at most
	// Env.T processes and be a pure function of (seed, env).
	Build func(seed int64, env Env) sim.FaultPlan
	// Proposals optionally overrides the campaign's proposal generator:
	// the §3 adversary chooses the input configuration as well as the
	// faults, and targeted strategies exploit that. Nil keeps the
	// campaign's default. Must be a pure function of (seed, env).
	Proposals func(seed int64, env Env) []msg.Value
}

// DrawProposals is the generic input generator: uniform random bits, with
// one draw in four using the "lone dissenter" pattern (a single process
// proposing the minority value) — the shape most splitting attacks need.
// The draw sequence is part of the stream contract (StreamVersion).
func DrawProposals(r *Stream, n int) []msg.Value {
	if r.Intn(4) == 0 {
		lone := r.Intn(n)
		v := msg.Bit(r.Intn(2))
		out := msg.Uniform(n, msg.FlipBit(v))
		out[lone] = v
		return out
	}
	out := make([]msg.Value, n)
	for i := range out {
		out[i] = msg.Bit(r.Intn(2))
	}
	return out
}

// ProposalsFor is the input configuration of the seed's probe: the
// strategy's own generator when it yields env.N values, else
// DrawProposals on the seed's "proposals" stream.
func (s Strategy) ProposalsFor(seed int64, env Env) []msg.Value {
	if s.Proposals != nil {
		if out := s.Proposals(seed, env); len(out) == env.N {
			return out
		}
	}
	r := NewStream(seed, "proposals")
	return DrawProposals(&r, env.N)
}

// randomFaulty draws a non-empty random subset of at most t processes
// (empty when the budget t is zero, as happens under Union sub-budgets).
// It draws until count distinct IDs are in hand and builds the set once.
func randomFaulty(r *Stream, n, t int) proc.Set {
	if t < 1 {
		return proc.Set{}
	}
	count := 1 + r.Intn(t)
	var stack [8]proc.ID
	ids := stack[:0]
	for len(ids) < count {
		if id := proc.ID(r.Intn(n)); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return proc.NewSet(ids...)
}

// RandomSendOmission corrupts a random subset of at most t processes and
// drops each of their outbound messages with the given percentage.
func RandomSendOmission(biasPct int) Strategy {
	name := fmt.Sprintf("random-send-omission(bias=%d%%)", biasPct)
	return Strategy{Name: name, Build: func(seed int64, env Env) sim.FaultPlan {
		r := NewStream(seed, name)
		f := randomFaulty(&r, env.N, env.T)
		return coinOmission{f: f, sendSeed: r.Int63(), sendPct: pct32(biasPct)}
	}}
}

// RandomReceiveOmission corrupts a random subset of at most t processes
// and drops each of their inbound messages with the given percentage.
func RandomReceiveOmission(biasPct int) Strategy {
	name := fmt.Sprintf("random-receive-omission(bias=%d%%)", biasPct)
	return Strategy{Name: name, Build: func(seed int64, env Env) sim.FaultPlan {
		r := NewStream(seed, name)
		f := randomFaulty(&r, env.N, env.T)
		return coinOmission{f: f, recvSeed: r.Int63(), recvPct: pct32(biasPct)}
	}}
}

// RandomOmission corrupts a random subset of at most t processes and drops
// each of their inbound and outbound messages with the given percentage —
// the full §3 omission adversary, randomized.
func RandomOmission(biasPct int) Strategy {
	name := fmt.Sprintf("random-omission(bias=%d%%)", biasPct)
	return Strategy{Name: name, Build: func(seed int64, env Env) sim.FaultPlan {
		r := NewStream(seed, name)
		f := randomFaulty(&r, env.N, env.T)
		sendSeed, recvSeed := r.Int63(), r.Int63()
		pct := pct32(biasPct)
		return coinOmission{f: f, sendSeed: sendSeed, recvSeed: recvSeed, sendPct: pct, recvPct: pct}
	}}
}

// coinOmission is the plan of the three random-omission strategies:
// sim.OmissionPlan with its two predicates written as methods, so that
// building one is one allocation, not three. It omits a message of a
// corrupted sender or receiver when that side's coin comes up; a side
// whose percentage is 0 never omits.
type coinOmission struct {
	f                  proc.Set
	sendSeed, recvSeed int64
	sendPct, recvPct   int32
}

var _ sim.FaultPlan = coinOmission{}

// pct32 narrows a percentage to coinOmission's field, clamped to 0..100
// first: coin reads every value past either end as that end.
func pct32(pct int) int32 { return int32(min(max(pct, 0), 100)) }

// Faulty implements sim.FaultPlan.
func (p coinOmission) Faulty() proc.Set { return p.f }

// Byzantine implements sim.FaultPlan.
func (coinOmission) Byzantine(proc.ID) sim.Machine { return nil }

// SendOmit implements sim.FaultPlan.
func (p coinOmission) SendOmit(m msg.Message) bool {
	return p.f.Contains(m.Sender) && coin(p.sendSeed, m, int(p.sendPct))
}

// ReceiveOmit implements sim.FaultPlan.
func (p coinOmission) ReceiveOmit(m msg.Message) bool {
	return p.f.Contains(m.Receiver) && coin(p.recvSeed, m, int(p.recvPct))
}

// SilentCrash crashes a random subset of at most t processes at random
// rounds, each with classical partial delivery (the crash interrupts the
// round's sends, reaching only a random subset of peers).
func SilentCrash() Strategy {
	const name = "silent-crash"
	return Strategy{Name: name, Build: func(seed int64, env Env) sim.FaultPlan {
		r := NewStream(seed, name)
		f := randomFaulty(&r, env.N, env.T)
		specs := make(map[proc.ID]sim.CrashSpec, f.Len())
		for _, id := range f.Members() {
			deliver := proc.Set{}
			for p := 0; p < env.N; p++ {
				if proc.ID(p) != id && r.Intn(2) == 0 {
					deliver = deliver.Add(proc.ID(p))
				}
			}
			specs[id] = sim.CrashSpec{Round: 1 + r.Intn(env.Horizon), DeliverTo: deliver}
		}
		return sim.Crash(specs)
	}}
}

// targetParams draws the (attacker, victim, pivot) triple of the targeted
// withholding attack. Build and Proposals share it, so the proposal vector
// always gives the attacker the uniquely small value its attack needs.
func targetParams(seed int64, env Env) (attacker, victim proc.ID, pivot int) {
	r := NewStream(seed, "targeted-withhold")
	attacker = proc.ID(r.Intn(env.N))
	victim = proc.ID(r.Intn(env.N - 1))
	if victim >= attacker {
		victim++
	}
	pivot = 1 + r.Intn(env.Horizon)
	return attacker, victim, pivot
}

// TargetedWithhold is the targeted send-omission attack that separates the
// crash model from the omission model (experiment E10, generalized): a
// seed-chosen attacker holds the uniquely small proposal, and
// omission.Withhold has it send-omit everything before a seed-chosen pivot
// round and from the pivot on deliver only to a single victim. When the
// pivot lands on the protocol's decision round, crash-tolerant protocols
// like FloodSet split.
func TargetedWithhold() Strategy {
	return Strategy{
		Name: "targeted-withhold",
		Build: func(seed int64, env Env) sim.FaultPlan {
			if env.T < 1 {
				return sim.NoFaults{} // no budget (e.g. the small side of a Union split)
			}
			return omission.Withhold(targetParams(seed, env))
		},
		Proposals: func(seed int64, env Env) []msg.Value {
			attacker, _, _ := targetParams(seed, env)
			out := msg.Uniform(env.N, msg.One)
			out[attacker] = msg.Zero
			return out
		},
	}
}

// SenderIsolation replays the paper's Definition 1 isolation pattern as a
// randomized strategy: a seed-chosen group of at most t processes
// receive-omits everything arriving from outside the group from a
// seed-chosen round on — the E_G(k) shape the lower-bound construction
// probes, aimed at arbitrary protocols.
func SenderIsolation() Strategy {
	const name = "sender-isolation"
	return Strategy{Name: name, Build: func(seed int64, env Env) sim.FaultPlan {
		r := NewStream(seed, name)
		group := randomFaulty(&r, env.N, env.T)
		from := 1 + r.Intn(env.Horizon)
		return omission.Isolation(group, from)
	}}
}

// Union combines two strategies into one adversary: the fault budget is
// split between them (⌈t/2⌉ and ⌊t/2⌋, so the union never exceeds t), the
// corrupted sets are united, omissions are or-ed, and Byzantine machines
// of the first strategy win ties.
func Union(a, b Strategy) Strategy {
	name := fmt.Sprintf("union(%s, %s)", a.Name, b.Name)
	s := Strategy{
		Name: name,
		Build: func(seed int64, env Env) sim.FaultPlan {
			envA, envB := env, env
			envA.T = (env.T + 1) / 2
			envB.T = env.T / 2
			return unionPlan{
				a: a.Build(subSeed(seed, name+"|a"), envA),
				b: b.Build(subSeed(seed, name+"|b"), envB),
			}
		},
	}
	// Adopt a child's proposal preference, first strategy winning ties.
	switch {
	case a.Proposals != nil:
		s.Proposals = func(seed int64, env Env) []msg.Value {
			return a.Proposals(subSeed(seed, name+"|a"), env)
		}
	case b.Proposals != nil:
		s.Proposals = func(seed int64, env Env) []msg.Value {
			return b.Proposals(subSeed(seed, name+"|b"), env)
		}
	}
	return s
}

type unionPlan struct{ a, b sim.FaultPlan }

var _ sim.FaultPlan = unionPlan{}

// Faulty implements sim.FaultPlan.
func (u unionPlan) Faulty() proc.Set { return u.a.Faulty().Union(u.b.Faulty()) }

// Byzantine implements sim.FaultPlan.
func (u unionPlan) Byzantine(id proc.ID) sim.Machine {
	if m := u.a.Byzantine(id); m != nil {
		return m
	}
	return u.b.Byzantine(id)
}

// SendOmit implements sim.FaultPlan.
func (u unionPlan) SendOmit(m msg.Message) bool { return u.a.SendOmit(m) || u.b.SendOmit(m) }

// ReceiveOmit implements sim.FaultPlan.
func (u unionPlan) ReceiveOmit(m msg.Message) bool { return u.a.ReceiveOmit(m) || u.b.ReceiveOmit(m) }

// Windowed gates a strategy's omission faults to the round interval
// [lo, hi] (inclusive). Byzantine machines pass through unchanged — a
// replaced machine misbehaves for the whole run by definition.
func Windowed(s Strategy, lo, hi int) Strategy {
	name := fmt.Sprintf("windowed(%s, %d..%d)", s.Name, lo, hi)
	return Strategy{
		Name: name,
		Build: func(seed int64, env Env) sim.FaultPlan {
			return filteredPlan{
				inner: s.Build(seed, env),
				keep:  func(m msg.Message) bool { return m.Round >= lo && m.Round <= hi },
			}
		},
		Proposals: s.Proposals,
	}
}

// Biased attenuates a strategy: every omission the inner plan commits is
// kept only with the given percentage, decided deterministically per
// message. Byzantine machines pass through unchanged.
func Biased(s Strategy, keepPct int) Strategy {
	name := fmt.Sprintf("biased(%s, keep=%d%%)", s.Name, keepPct)
	return Strategy{
		Name: name,
		Build: func(seed int64, env Env) sim.FaultPlan {
			keepSeed := subSeed(seed, name)
			return filteredPlan{
				inner: s.Build(seed, env),
				keep:  func(m msg.Message) bool { return coin(keepSeed, m, keepPct) },
			}
		},
		Proposals: s.Proposals,
	}
}

// filteredPlan keeps the inner plan's corruption and machines but commits
// only the omissions its keep predicate admits. Since kept omissions are a
// subset of the inner plan's, they still touch only faulty processes.
type filteredPlan struct {
	inner sim.FaultPlan
	keep  func(msg.Message) bool
}

var _ sim.FaultPlan = filteredPlan{}

// Faulty implements sim.FaultPlan.
func (p filteredPlan) Faulty() proc.Set { return p.inner.Faulty() }

// Byzantine implements sim.FaultPlan.
func (p filteredPlan) Byzantine(id proc.ID) sim.Machine { return p.inner.Byzantine(id) }

// SendOmit implements sim.FaultPlan.
func (p filteredPlan) SendOmit(m msg.Message) bool { return p.inner.SendOmit(m) && p.keep(m) }

// ReceiveOmit implements sim.FaultPlan.
func (p filteredPlan) ReceiveOmit(m msg.Message) bool { return p.inner.ReceiveOmit(m) && p.keep(m) }
