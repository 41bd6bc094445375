package fuzz

import (
	"slices"

	"expensive/internal/adversary"
	"expensive/internal/msg"
	"expensive/internal/proc"
)

// Candidate is one derived probe awaiting execution: a normalized explicit
// plan, its proposal vector, and its provenance for the corpus record. It
// is JSON-serializable because the distributed coordinator derives
// candidates centrally and ships them to workers over the wire.
type Candidate struct {
	Plan      adversary.ExplicitPlan `json:"plan"`
	Proposals []msg.Value            `json:"proposals"`
	// Parent is the corpus entry ID the candidate was mutated from (-1 for
	// generation-0 seed extractions); Op names the operator that derived it.
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// mutator derives candidates from corpus parents. All choices come from
// the candidate's private stream, so derivation is a pure function of
// (master seed, generation, slot, corpus-at-generation-start) — the
// determinism the byte-identical-corpus guarantee rests on.
type mutator struct {
	n, t, horizon int
}

// opNames indexes the operator table. The omission-growing operators are
// over-weighted: building up consistent withholding patterns is the
// productive direction for reaching splitting attacks, and a lone
// add-omission only ever takes one step at a time.
var opNames = []string{
	"add-omission",
	"add-omission",
	"add-streak",
	"add-streak",
	"drop-omission",
	"retarget-omission",
	"shift-round",
	"promote-byzantine",
	"drop-process",
	"crossover",
	"reseed-proposals",
}

// frontier is the tail of the corpus parent selection favors: half the
// candidates mutate one of the newest frontier entries, the other half an
// entry chosen uniformly. New coverage means unexplored neighborhood, so
// concentrating there keeps the search moving even as the corpus grows
// into the thousands.
const frontier = 64

// pickParent selects a corpus entry, biased towards the discovery
// frontier.
func pickParent(r *adversary.Stream, corpus *Corpus) *Entry {
	n := len(corpus.Entries)
	if n > frontier && r.Intn(2) == 0 {
		return corpus.Entries[n-frontier+r.Intn(frontier)]
	}
	return corpus.Entries[r.Intn(n)]
}

// mutate derives one candidate: pick a parent, apply one operator,
// normalize. The corpus must be non-empty.
func (m mutator) mutate(r *adversary.Stream, corpus *Corpus) Candidate {
	parent := pickParent(r, corpus)
	c := Candidate{
		Plan:      parent.Plan.Clone(),
		Proposals: append([]msg.Value(nil), parent.Proposals...),
		Parent:    parent.ID,
	}
	c.Op = opNames[r.Intn(len(opNames))]
	switch c.Op {
	case "add-omission":
		m.addOmission(r, &c.Plan)
	case "add-streak":
		m.addStreak(r, &c.Plan)
	case "drop-omission":
		if !m.dropOmission(r, &c.Plan) {
			c.Op = "add-omission" // nothing to drop: grow instead
			m.addOmission(r, &c.Plan)
		}
	case "retarget-omission":
		if !m.retargetOmission(r, &c.Plan) {
			c.Op = "add-omission"
			m.addOmission(r, &c.Plan)
		}
	case "shift-round":
		if !m.shiftRound(r, &c.Plan) {
			c.Op = "add-omission"
			m.addOmission(r, &c.Plan)
		}
	case "promote-byzantine":
		m.promoteByzantine(r, &c.Plan)
	case "drop-process":
		if !m.dropProcess(r, &c.Plan) {
			c.Op = "add-omission"
			m.addOmission(r, &c.Plan)
		}
	case "crossover":
		other := corpus.Entries[r.Intn(len(corpus.Entries))]
		m.crossover(r, &c.Plan, &other.Plan)
	case "reseed-proposals":
		c.Proposals = adversary.DrawProposals(r, m.n)
	}
	m.normalize(&c.Plan)
	return c
}

// faultyFor returns the faulty process an omission should hang off:
// usually an existing corrupted process, occasionally (budget permitting)
// a freshly corrupted one, so the corrupted set itself is searched too.
func (m mutator) faultyFor(r *adversary.Stream, p *adversary.ExplicitPlan) proc.ID {
	if len(p.Faulty) == 0 || (len(p.Faulty) < m.t && r.Intn(4) == 0) {
		id := proc.ID(r.Intn(m.n))
		if !slices.Contains(p.Faulty, id) {
			p.Faulty = append(p.Faulty, id)
		}
		return id
	}
	return p.Faulty[r.Intn(len(p.Faulty))]
}

// peer picks a process other than id.
func (m mutator) peer(r *adversary.Stream, id proc.ID) proc.ID {
	q := proc.ID(r.Intn(m.n - 1))
	if q >= id {
		q++
	}
	return q
}

// addOmission appends one omitted message identity committed by a faulty
// process (send- or receive-side, uniformly).
func (m mutator) addOmission(r *adversary.Stream, p *adversary.ExplicitPlan) {
	id := m.faultyFor(r, p)
	round := 1 + r.Intn(m.horizon)
	if r.Intn(2) == 0 {
		p.SendOmit = append(p.SendOmit, msg.Key{Sender: id, Receiver: m.peer(r, id), Round: round})
	} else {
		p.ReceiveOmit = append(p.ReceiveOmit, msg.Key{Sender: m.peer(r, id), Receiver: id, Round: round})
	}
}

// addStreak send-omits one faulty sender's messages over a round interval
// — towards a single peer, or (one time in four) towards everyone. This is
// the crash/withholding shape: sustained suppression of one information
// flow, the pattern both the E10 attack and the paper's isolation
// construction are made of, which single-omission steps only reach one
// round at a time.
func (m mutator) addStreak(r *adversary.Stream, p *adversary.ExplicitPlan) {
	id := m.faultyFor(r, p)
	from := 1 + r.Intn(m.horizon)
	to := from + r.Intn(m.horizon-from+1)
	if r.Intn(4) == 0 {
		for q := 0; q < m.n; q++ {
			if proc.ID(q) == id {
				continue
			}
			for round := from; round <= to; round++ {
				p.SendOmit = append(p.SendOmit, msg.Key{Sender: id, Receiver: proc.ID(q), Round: round})
			}
		}
		return
	}
	peer := m.peer(r, id)
	for round := from; round <= to; round++ {
		p.SendOmit = append(p.SendOmit, msg.Key{Sender: id, Receiver: peer, Round: round})
	}
}

// pickOmission selects one omission uniformly across both sides; false
// when the plan has none. send reports which slice index i refers to.
func pickOmission(r *adversary.Stream, p *adversary.ExplicitPlan) (i int, send, ok bool) {
	total := len(p.SendOmit) + len(p.ReceiveOmit)
	if total == 0 {
		return 0, false, false
	}
	i = r.Intn(total)
	if i < len(p.SendOmit) {
		return i, true, true
	}
	return i - len(p.SendOmit), false, true
}

// dropOmission removes one omitted identity; false when there is none.
func (m mutator) dropOmission(r *adversary.Stream, p *adversary.ExplicitPlan) bool {
	i, send, ok := pickOmission(r, p)
	if !ok {
		return false
	}
	if send {
		p.SendOmit = append(p.SendOmit[:i], p.SendOmit[i+1:]...)
	} else {
		p.ReceiveOmit = append(p.ReceiveOmit[:i], p.ReceiveOmit[i+1:]...)
	}
	return true
}

// retargetOmission re-aims one omission at a different peer, keeping its
// faulty endpoint and round.
func (m mutator) retargetOmission(r *adversary.Stream, p *adversary.ExplicitPlan) bool {
	i, send, ok := pickOmission(r, p)
	if !ok {
		return false
	}
	if send {
		p.SendOmit[i].Receiver = m.peer(r, p.SendOmit[i].Sender)
	} else {
		p.ReceiveOmit[i].Sender = m.peer(r, p.ReceiveOmit[i].Receiver)
	}
	return true
}

// shiftRound moves one omission a round earlier or later (clamped to the
// horizon).
func (m mutator) shiftRound(r *adversary.Stream, p *adversary.ExplicitPlan) bool {
	i, send, ok := pickOmission(r, p)
	if !ok {
		return false
	}
	delta := 1
	if r.Intn(2) == 0 {
		delta = -1
	}
	var k *msg.Key
	if send {
		k = &p.SendOmit[i]
	} else {
		k = &p.ReceiveOmit[i]
	}
	k.Round += delta
	if k.Round < 1 {
		k.Round = 1
	}
	if k.Round > m.horizon {
		k.Round = m.horizon
	}
	return true
}

// byzKinds are the replayable machine kinds a promotion can install.
var byzKinds = []string{adversary.KindChaos, adversary.KindEquivocate, adversary.KindTwoFaced}

// promoteByzantine upgrades one faulty process from omission-faulty
// (crash-shaped) to a fully Byzantine machine — or re-seeds its machine if
// it already has one.
func (m mutator) promoteByzantine(r *adversary.Stream, p *adversary.ExplicitPlan) {
	id := m.faultyFor(r, p)
	spec := adversary.MachineSpec{Kind: byzKinds[r.Intn(len(byzKinds))], Seed: r.Int63()}
	for i := range p.Byzantine {
		if p.Byzantine[i].ID == id {
			p.Byzantine[i].Spec = spec
			return
		}
	}
	p.Byzantine = append(p.Byzantine, adversary.ByzEntry{ID: id, Spec: spec})
}

// dropProcess un-corrupts one faulty process, removing its machine and
// every omission it commits — the in-search counterpart of the shrinker's
// element removal.
func (m mutator) dropProcess(r *adversary.Stream, p *adversary.ExplicitPlan) bool {
	if len(p.Faulty) == 0 {
		return false
	}
	id := p.Faulty[r.Intn(len(p.Faulty))]
	p.Faulty = slices.DeleteFunc(p.Faulty, func(f proc.ID) bool { return f == id })
	p.SendOmit = slices.DeleteFunc(p.SendOmit, func(k msg.Key) bool { return k.Sender == id })
	p.ReceiveOmit = slices.DeleteFunc(p.ReceiveOmit, func(k msg.Key) bool { return k.Receiver == id })
	p.Byzantine = slices.DeleteFunc(p.Byzantine, func(e adversary.ByzEntry) bool { return e.ID == id })
	return true
}

// crossover unions two parents: corrupted sets, omissions and machines are
// merged (first parent winning machine ties); normalize then trims the
// union back inside the fault budget.
func (m mutator) crossover(_ *adversary.Stream, p, other *adversary.ExplicitPlan) {
	for _, f := range other.Faulty {
		if !slices.Contains(p.Faulty, f) {
			p.Faulty = append(p.Faulty, f)
		}
	}
	p.SendOmit = append(p.SendOmit, other.SendOmit...)
	p.ReceiveOmit = append(p.ReceiveOmit, other.ReceiveOmit...)
	for _, e := range other.Byzantine {
		if !slices.ContainsFunc(p.Byzantine, func(b adversary.ByzEntry) bool { return b.ID == e.ID }) {
			p.Byzantine = append(p.Byzantine, e)
		}
	}
}

// normalize restores what sim.Run requires of a plan, drops the omissions
// the engine would never ask about (sim.FaultPlan) and restores the
// canonical element order the corpus encoding depends on: the corrupted
// set is sorted, deduplicated and truncated to the fault budget; every
// omission references in-range processes and rounds and hangs off a
// corrupted endpoint; omission lists are sorted and deduplicated; machine
// entries cover only corrupted processes, one per process, in ID order.
// Every mutation funnels through here, so candidates can never make
// sim.Run reject the plan.
func (m mutator) normalize(p *adversary.ExplicitPlan) {
	slices.Sort(p.Faulty)
	p.Faulty = slices.Compact(p.Faulty)
	p.Faulty = slices.DeleteFunc(p.Faulty, func(f proc.ID) bool { return f < 0 || int(f) >= m.n })
	if len(p.Faulty) > m.t {
		p.Faulty = p.Faulty[:m.t]
	}
	fset := proc.NewSet(p.Faulty...)

	keep := func(k msg.Key, faultySide proc.ID) bool {
		return k.Round >= 1 && k.Round <= m.horizon &&
			k.Sender >= 0 && int(k.Sender) < m.n &&
			k.Receiver >= 0 && int(k.Receiver) < m.n &&
			k.Sender != k.Receiver && fset.Contains(faultySide)
	}
	p.SendOmit = slices.DeleteFunc(p.SendOmit, func(k msg.Key) bool { return !keep(k, k.Sender) })
	slices.SortFunc(p.SendOmit, msg.Key.Compare)
	p.SendOmit = slices.Compact(p.SendOmit)
	p.ReceiveOmit = slices.DeleteFunc(p.ReceiveOmit, func(k msg.Key) bool { return !keep(k, k.Receiver) })
	slices.SortFunc(p.ReceiveOmit, msg.Key.Compare)
	p.ReceiveOmit = slices.Compact(p.ReceiveOmit)

	p.Byzantine = slices.DeleteFunc(p.Byzantine, func(e adversary.ByzEntry) bool { return !fset.Contains(e.ID) })
	slices.SortStableFunc(p.Byzantine, func(a, b adversary.ByzEntry) int { return int(a.ID) - int(b.ID) })
	p.Byzantine = slices.CompactFunc(p.Byzantine, func(a, b adversary.ByzEntry) bool { return a.ID == b.ID })
}
