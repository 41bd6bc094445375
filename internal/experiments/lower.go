package experiments

import (
	"fmt"
	"slices"

	"crypto/sha256"
	"encoding/hex"

	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // Falsifiable accepts any catalog ID
	"expensive/internal/crypto/sig"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
	"expensive/internal/sim"
)

// spec returns the catalog spec registered under id; every ID the
// experiments name is linked by catalog/all.
func spec(id string) catalog.Spec { s, _ := catalog.Lookup(id); return s }

// e1Rows returns E1's protocols: the sub-quadratic strawmen, which must be
// falsified, and two sound weak consensus specs from the catalog, which
// must exceed the budget (weak-via-ic keeps its own signature scheme).
func e1Rows() []lowerbound.Candidate {
	cheapRow := func(name, complexity string, rounds int, f func(n int) sim.Factory) lowerbound.Candidate {
		return lowerbound.Candidate{Name: name, Complexity: complexity,
			Build: func(n, _ int) (sim.Factory, int, error) { return f(n), rounds, nil }}
	}
	return []lowerbound.Candidate{
		cheapRow("silent", "0 msgs", cheap.SilentRounds, func(int) sim.Factory { return cheap.Silent() }),
		cheapRow("leader", "n-1 msgs", cheap.LeaderRounds, cheap.Leader),
		cheapRow("star", "2(n-1) msgs", cheap.StarRounds, cheap.Star),
		cheapRow("gossip-k3", "3n msgs", cheap.GossipRounds, func(n int) sim.Factory { return cheap.Gossip(n, 3) }),
		{
			Name: "phase-king", Sound: true, Complexity: "Θ(n²·t) msgs, n > 4t",
			Build: spec("weak-phase-king").Rebuilder(catalog.Params{}),
		},
		{
			Name: "weak-via-ic", Sound: true, Complexity: "Θ(n³) msgs (n×Dolev-Strong), any t < n",
			Build: spec("weak-ic").Rebuilder(catalog.Params{Scheme: sig.NewIdeal("e1-ic")}),
		},
	}
}

// Falsifiable resolves a protocol name for the falsifier: E1's rows first,
// then any catalog ID, built at catalog.DefaultParams and lifted through
// Algorithm 1 at (0, 1).
func Falsifiable(name string) (lowerbound.Candidate, error) {
	rows := e1Rows()
	if i := slices.IndexFunc(rows, func(c lowerbound.Candidate) bool { return c.Name == name }); i >= 0 {
		return rows[i], nil
	}
	s, ok := catalog.Lookup(name)
	if !ok {
		return lowerbound.Candidate{}, fmt.Errorf("unknown protocol %q (have %v)", name, FalsifierNames())
	}
	return lowerbound.Candidate{
		Name: s.ID, Complexity: s.Title,
		Build: s.Rebuilder(catalog.DefaultParams(0, 0)),
		Lift:  lowerbound.Lift{V0: msg.Zero, V1: msg.One},
	}, nil
}

// FalsifierNames lists what Falsifiable accepts: E1's rows, then the
// catalog IDs they do not shadow. The one shadowed ID, phase-king, runs
// the same machines as E1's phase-king row (weak-phase-king).
func FalsifierNames() []string {
	var names []string
	for _, c := range e1Rows() {
		names = append(names, c.Name)
	}
	for _, id := range catalog.IDs() {
		if !slices.Contains(names, id) {
			names = append(names, id)
		}
	}
	return names
}

// falsifyRows runs each candidate through the lower-bound route at the
// (n, t) size picks, across the worker pool, and holds it to Sound: a sound
// protocol survives with probes at or above t²/32, a cheap one breaks (its
// certificate rechecked by the route). render makes each row, in order.
func falsifyRows(cands []lowerbound.Candidate, opts runner.Options, size func(lowerbound.Candidate) (int, int),
	render func(lowerbound.Candidate, *lowerbound.Report) []string) ([][]string, error) {
	return runner.Map(opts.Context(), opts.Workers(), len(cands), func(i int) ([]string, error) {
		c := cands[i]
		n, t := size(c)
		rep, err := c.Run(n, t, lowerbound.Options{Parallelism: opts.Parallelism, Ctx: opts.Context()})
		switch {
		case err != nil:
			return nil, err
		case c.Sound && rep.Broken():
			return nil, fmt.Errorf("%s: sound protocol falsified: %s", c.Name, rep.Violation)
		case !c.Sound && !rep.Broken():
			return nil, fmt.Errorf("%s: cheap protocol survived the falsifier", c.Name)
		case c.Sound && rep.MaxCorrectMessages < rep.Threshold:
			return nil, fmt.Errorf("%s: survived with at most %d messages, below t²/32 = %d", c.Name, rep.MaxCorrectMessages, rep.Threshold)
		}
		return render(c, rep), nil
	})
}

// E1 runs the Theorem 2 falsifier across its rows: the cheap ones at
// (cheapN, cheapT), the sound ones at their resilience-compatible
// (soundN, soundT).
func E1(cheapN, cheapT, soundN, soundT int, opts runner.Options) (*Table, error) {
	tab := &Table{
		ID:    "E1",
		Title: "Theorem 2 / Lemma 1 — the Ω(t²) falsifier vs. weak consensus protocols",
		Header: []string{
			"protocol", "claimed complexity", "n", "t", "t²/32",
			"max msgs observed", "verdict", "certificate",
		},
	}
	var err error
	tab.Rows, err = falsifyRows(e1Rows(), opts, func(c lowerbound.Candidate) (int, int) {
		if c.Sound {
			return soundN, soundT
		}
		return cheapN, cheapT
	}, func(c lowerbound.Candidate, rep *lowerbound.Report) []string {
		verdict, cert := "budget respected (sound)", "-"
		if rep.Broken() {
			verdict, cert = rep.Violation.Kind+" violated", "machine-checked"
		}
		return []string{
			c.Name, c.Complexity, itoa(rep.N), itoa(rep.T), itoa(rep.Threshold),
			itoa(rep.MaxCorrectMessages), verdict, cert,
		}
	})
	if err != nil {
		return nil, fmt.Errorf("E1 %w", err)
	}
	tab.Notes = append(tab.Notes,
		"every sub-quadratic protocol is falsified with a concrete, independently re-validated execution",
		"every sound protocol's probe executions exceed the t²/32 budget, as Theorem 2 requires",
	)
	return tab, nil
}

// E2 demonstrates Figure 1: behavior divergence after isolating a group at
// round R. The protocol is a chained echo — every round each process
// broadcasts a digest of everything it received in the previous round — so
// any change in a process's view propagates into its future sends. The
// table reports, per round, how many processes send exactly the same
// messages as in the fault-free execution E0: the isolated group diverges
// at round R+1 (Figure 1's red band) and the rest at round R+2 (blue).
func E2(n, t, isolateAt int) (*Table, error) {
	factory := chainedEchoFactory(n)
	part, err := proc.NewPartition(n, t)
	if err != nil {
		return nil, err
	}
	horizon := isolateAt + 5
	e0, err := sim.Run(sim.Config{N: n, T: t, Proposals: msg.Uniform(n, msg.Zero), MaxRounds: horizon}, factory, sim.NoFaults{})
	if err != nil {
		return nil, err
	}
	eIso, err := omission.RunIsolated(n, t, factory, msg.Zero, part.B, isolateAt, horizon)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "E2",
		Title:  fmt.Sprintf("Figure 1 — isolation anatomy: E0 vs E_B(%d), chained echo n=%d t=%d", isolateAt, n, t),
		Header: []string{"round", "senders matching E0", "inside B diverged", "outside B diverged"},
	}
	// The note below is a claim, verified while the table is counted:
	// nobody may diverge during the identical prefix, and processes outside
	// B may not diverge before the propagation round.
	for r := 1; r <= eIso.Rounds; r++ {
		same, inB, outB := 0, 0, 0
		for id := proc.ID(0); id < proc.ID(n); id++ {
			s0 := e0.Behavior(id).Frag(r)
			s1 := eIso.Behavior(id).Frag(r)
			sent0 := append(append([]msg.Message{}, s0.Sent...), s0.SendOmitted...)
			sent1 := append(append([]msg.Message{}, s1.Sent...), s1.SendOmitted...)
			switch {
			case msg.SameSet(sent0, sent1):
				same++
			case r <= isolateAt:
				return nil, fmt.Errorf("E2: %s diverged at round %d, before isolation", id, r)
			case part.B.Contains(id):
				inB++
			case r == isolateAt+1:
				return nil, fmt.Errorf("E2: %s (outside B) diverged one round too early", id)
			default:
				outB++
			}
		}
		tab.Rows = append(tab.Rows, []string{itoa(r), itoa(same), itoa(inB), itoa(outB)})
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("all sends identical through round %d; group B (receive-isolated) diverges from round %d; the rest from round %d by propagation — exactly Figure 1's green/red/blue bands",
			isolateAt, isolateAt+1, isolateAt+2),
	)
	return tab, nil
}

// chainedEchoFactory builds the Figure 1 demonstration machine: each round
// it broadcasts a digest chaining everything it has received so far, so a
// single dropped message changes all of its future sends.
func chainedEchoFactory(n int) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &chainedEcho{n: n, id: id, digest: string(proposal)}
	}
}

type chainedEcho struct {
	n      int
	id     proc.ID
	digest string
	out    sim.Broadcast
}

var _ sim.Machine = (*chainedEcho)(nil)

func (m *chainedEcho) broadcast() []sim.Outgoing { return m.out.Send(m.n, m.id, m.digest) }

func (m *chainedEcho) Init() []sim.Outgoing { return m.broadcast() }

func (m *chainedEcho) Step(round int, received []msg.Message) []sim.Outgoing {
	sum := sha256.New()
	sum.Write([]byte(m.digest))
	for _, rm := range received {
		fmt.Fprintf(sum, "|%d:%s", int(rm.Sender), rm.Payload)
	}
	m.digest = hex.EncodeToString(sum.Sum(nil))[:16]
	return m.broadcast()
}

// Decision never fires and Quiescent never holds: this machine exists to
// visualize divergence, not to decide, so every run of it lasts until its
// horizon.
func (m *chainedEcho) Decision() (msg.Value, bool) { return msg.NoDecision, false }

func (m *chainedEcho) Quiescent() bool { return false }

// E3 reproduces Figure 2 / Lemmas 3-5 on a cheap protocol: the decisions
// of A, B and C in the critical executions and their merge.
func E3(n, t int, opts runner.Options) (*Table, error) {
	factory := cheap.Star(n)
	rounds := cheap.StarRounds
	rep, err := lowerbound.Falsify("star", factory, rounds, n, t,
		lowerbound.Options{Parallelism: opts.Parallelism, Ctx: opts.Context()})
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("Figure 2 / Lemmas 3-5 — the construction narrative (star protocol, n=%d t=%d)", n, t),
		Header: []string{"step"},
	}
	for _, l := range rep.Log {
		tab.Rows = append(tab.Rows, []string{l})
	}
	if rep.Violation != nil {
		tab.Rows = append(tab.Rows, []string{"=> " + rep.Violation.String()})
	}
	return tab, nil
}

// E4 demonstrates Algorithm 4 (swap_omission) and Lemma 15's guarantees on
// the leader protocol.
func E4(n, t int) (*Table, error) {
	factory := cheap.Leader(n)
	group := proc.Range(proc.ID(n-2), proc.ID(n))
	e, err := omission.RunIsolated(n, t, factory, msg.Zero, group, 1, 3)
	if err != nil {
		return nil, err
	}
	victim := group.Min()
	mxp := len(omission.MessagesFromTo(e, e.Correct(), victim))
	swapped, err := omission.SwapOmission(e, victim)
	if err != nil {
		return nil, err
	}
	checks := []struct {
		name string
		err  error
	}{
		{"result satisfies Appendix A guarantees", omission.Validate(swapped)},
		{"indistinguishable to the victim", omission.Indistinguishable(e, swapped, victim)},
		{"trace conforms to honest machines", sim.Conforms(swapped, factory, proc.Set{})},
	}
	tab := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("Lemma 2 / Algorithm 4 — swap_omission on the leader protocol (n=%d t=%d)", n, t),
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"isolated group", group.String()},
			{"victim p", victim.String()},
			{"|M_{X→p}| (receive-omitted from correct)", itoa(mxp)},
			{"t/2 cutoff", itoa(t / 2)},
			{"faulty before swap", e.Faulty.String()},
			{"faulty after swap", swapped.Faulty.String()},
			{"victim correct after swap", yesNo(!swapped.Faulty.Contains(victim))},
		},
	}
	for _, c := range checks {
		tab.Rows = append(tab.Rows, []string{c.name, yesNo(c.err == nil)})
		if c.err != nil {
			return nil, fmt.Errorf("E4: %s: %w", c.name, c.err)
		}
	}
	d1, _ := swapped.Decision(victim)
	d2, _ := swapped.Decision(1)
	tab.Rows = append(tab.Rows, []string{"decisions (victim vs correct p1)", fmt.Sprintf("%s vs %s", d1, d2)})
	tab.Notes = append(tab.Notes, "the swapped execution is valid, has ≤ t faults, and two correct processes disagree — Lemma 2's contradiction")
	return tab, nil
}
