package experiments

import (
	"fmt"

	"expensive/internal/crypto/sig"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/protocols/floodset"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/protocols/reduction"
	"expensive/internal/sim"
)

// E10 probes the failure-model hierarchy the lower bound rests on: the
// paper proves Ω(t²) against *omission* faults, strictly stronger than
// crashes. FloodSet — correct under crashes — splits under a single
// omission-faulty process, while the Byzantine-tolerant Phase-King (a
// fortiori omission-tolerant) survives the same attack.
func E10(n, t int) (*Table, error) {
	proposals := msg.Uniform(n, msg.One)
	proposals[0] = msg.Zero
	correct := proc.Range(1, proc.ID(n))

	type trial struct {
		protocol string
		factory  sim.Factory
		rounds   int
		model    string
		plan     sim.FaultPlan
		group    proc.Set
	}
	fsFactory := floodset.New(floodset.Config{N: n, T: t})
	pkFactory := phaseking.New(phaseking.Config{N: n, T: t})
	crashPlan := sim.Crash(map[proc.ID]sim.CrashSpec{
		0: {Round: 1, DeliverTo: proc.NewSet(1)},
	})
	trials := []trial{
		{"floodset", fsFactory, floodset.RoundBound(t), "no faults", sim.NoFaults{}, proc.Universe(n)},
		{"floodset", fsFactory, floodset.RoundBound(t), "crash (partial delivery)", crashPlan, correct},
		{"floodset", fsFactory, floodset.RoundBound(t), "omission (last-round reveal)", floodset.LastRoundReveal(0, 1, t), correct},
		{"phase-king", pkFactory, phaseking.RoundBound(t), "omission (last-round reveal)", floodset.LastRoundReveal(0, 1, t), correct},
	}
	tab := &Table{
		ID:     "E10",
		Title:  fmt.Sprintf("Failure-model hierarchy — crash ⊊ omission ⊊ Byzantine (n=%d t=%d)", n, t),
		Header: []string{"protocol", "tolerates", "fault model injected", "agreement among correct"},
	}
	tolerates := map[string]string{"floodset": "crash", "phase-king": "byzantine (n > 4t)"}
	for _, tr := range trials {
		e, err := leanRun(sim.Config{N: n, T: t, Proposals: proposals, MaxRounds: sim.Horizon(tr.rounds)}, tr.factory, tr.plan)
		if err != nil {
			return nil, fmt.Errorf("E10 %s/%s: %w", tr.protocol, tr.model, err)
		}
		verdict := "holds"
		if _, err := e.CommonDecision(tr.group); err != nil {
			verdict = "VIOLATED: " + err.Error()
		}
		tab.Rows = append(tab.Rows, []string{tr.protocol, tolerates[tr.protocol], tr.model, verdict})
	}
	tab.Notes = append(tab.Notes,
		"crash-tolerance does not imply omission-tolerance: the Ω(t²) bound's failure model is genuinely weaker than Byzantine yet stronger than crash",
	)
	return tab, nil
}

// dsEquivocator is the E11 Byzantine sender: signed value A to the first
// half, signed value B to the rest.
type dsEquivocator struct {
	cfg    dolevstrong.Config
	signer sig.Scheme
}

func (m *dsEquivocator) item(v msg.Value) (dolevstrong.Item, error) {
	s, err := m.signer.Sign(m.cfg.Sender, dolevstrong.SignedData(m.cfg.Tag, v))
	if err != nil {
		return dolevstrong.Item{}, err
	}
	return dolevstrong.Item{V: v, C: []dolevstrong.Link{{S: int(m.cfg.Sender), G: s}}}, nil
}

func (m *dsEquivocator) Init() []sim.Outgoing {
	var out []sim.Outgoing
	for p := 1; p < m.cfg.N; p++ {
		v := msg.Value("A")
		if p > m.cfg.N/2 {
			v = "B"
		}
		it, err := m.item(v)
		if err != nil {
			continue
		}
		out = append(out, sim.Outgoing{To: proc.ID(p), Payload: msg.Encode(dolevstrong.Payload{Items: []dolevstrong.Item{it}})})
	}
	return out
}

func (m *dsEquivocator) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *dsEquivocator) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *dsEquivocator) Quiescent() bool                        { return true }

// splitKing is the E11 Byzantine phase king: 0 to the first half, 1 to the
// rest, every round.
type splitKing struct {
	n, t int
	id   proc.ID
}

func (m *splitKing) emit() []sim.Outgoing {
	var out []sim.Outgoing
	for p := 0; p < m.n; p++ {
		if proc.ID(p) == m.id {
			continue
		}
		v := msg.Zero
		if p >= m.n/2 {
			v = msg.One
		}
		out = append(out, sim.Outgoing{To: proc.ID(p), Payload: msg.Encode(struct{ V msg.Value }{v})})
	}
	return out
}

func (m *splitKing) Init() []sim.Outgoing { return m.emit() }

func (m *splitKing) Step(round int, _ []msg.Message) []sim.Outgoing {
	if round >= 2*(m.t+1) {
		return nil
	}
	return m.emit()
}

func (m *splitKing) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (m *splitKing) Quiescent() bool             { return false }

// E11 runs the ablations DESIGN.md calls out: remove one load-bearing
// mechanism from each construction and watch the corresponding guarantee
// fail; restore it and watch it hold.
func E11() (*Table, error) {
	tab := &Table{
		ID:     "E11",
		Title:  "Ablations — each design choice is load-bearing",
		Header: []string{"construction", "ablation", "with ablation", "without ablation"},
	}

	// 1. Falsifier without merge cannot break Silent (Lemma 3 load-bearing).
	n, t := 40, 16
	silent, _ := Falsifiable("silent") // an E1 row
	repAblated, err := silent.Run(n, t, lowerbound.Options{DisableMerge: true})
	if err != nil {
		return nil, err
	}
	repFull, err := silent.Run(n, t, lowerbound.Options{})
	if err != nil {
		return nil, err
	}
	if repAblated.Broken() || !repFull.Broken() {
		return nil, fmt.Errorf("E11 falsifier ablation: unexpected outcome (%v/%v)", repAblated.Broken(), repFull.Broken())
	}
	tab.Rows = append(tab.Rows, []string{
		"Theorem 2 falsifier", "merge step (Lemmas 3-5) disabled",
		"silent protocol survives", "silent protocol falsified",
	})

	// 2. Dolev-Strong without relaying: equivocation splits the processes.
	scheme := sig.NewIdeal("e11-ds")
	verdicts := [2]string{}
	for i, noRelay := range []bool{true, false} {
		cfg := dolevstrong.Config{N: 7, T: 2, Sender: 0, Scheme: scheme, Tag: "bb", Default: "⊥", UnsafeNoRelay: noRelay}
		adv := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: &dsEquivocator{cfg: cfg, signer: scheme}}}
		e, err := leanRun(sim.Config{N: 7, T: 2, Proposals: msg.Uniform(7, "x"), MaxRounds: dolevstrong.RoundBound(2) + 1},
			dolevstrong.New(cfg), adv)
		if err != nil {
			return nil, err
		}
		if _, err := e.CommonDecision(proc.Range(1, 7)); err != nil {
			verdicts[i] = "agreement VIOLATED"
		} else {
			verdicts[i] = "agreement holds"
		}
	}
	if verdicts[0] == verdicts[1] {
		return nil, fmt.Errorf("E11 relay ablation: no behavioral difference")
	}
	tab.Rows = append(tab.Rows, []string{
		"Dolev-Strong broadcast", "relay of accepted values removed", verdicts[0], verdicts[1],
	})

	// 3. Phase-King with t phases instead of t+1.
	for i, phases := range []int{1 /* = t */, 2 /* = t+1 */} {
		cfg := phaseking.Config{N: 5, T: 1, PhasesOverride: phases}
		adv := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{0: &splitKing{n: 5, t: 1, id: 0}}}
		proposals := []msg.Value{"0", "0", "0", "1", "1"}
		e, err := leanRun(sim.Config{N: 5, T: 1, Proposals: proposals, MaxRounds: 2*phases + 2},
			phaseking.New(cfg), adv)
		if err != nil {
			return nil, err
		}
		if _, err := e.CommonDecision(proc.Range(1, 5)); err != nil {
			verdicts[i] = "agreement VIOLATED"
		} else {
			verdicts[i] = "agreement holds"
		}
	}
	if verdicts[0] == verdicts[1] {
		return nil, fmt.Errorf("E11 phase ablation: no behavioral difference")
	}
	tab.Rows = append(tab.Rows, []string{
		"Phase-King", "t phases instead of t+1", verdicts[0], verdicts[1],
	})

	// 4. Algorithm 1 with c1 = c0: both weak proposals map to the same
	// execution of P, so proposing 1 decides 0 — Weak Validity breaks.
	pk := phaseking.New(phaseking.Config{N: 5, T: 1})
	zeros := []msg.Value{"0", "0", "0", "0", "0"}
	ones := []msg.Value{"1", "1", "1", "1", "1"}
	goodSpec, err := reduction.DeriveAlg1(pk, 5, 1, sim.Horizon(phaseking.RoundBound(1)), zeros, ones)
	if err != nil {
		return nil, err
	}
	badSpec := goodSpec
	badSpec.C1 = zeros // the ablation: c1 no longer contains a config excluding v0
	for i, spec := range []reduction.Alg1Spec{badSpec, goodSpec} {
		wrapped := reduction.WeakFromAgreement(pk, spec)
		e, err := leanRun(sim.Config{N: 5, T: 1, Proposals: ones, MaxRounds: sim.Horizon(phaseking.RoundBound(1))},
			wrapped, sim.NoFaults{})
		if err != nil {
			return nil, err
		}
		d, err := e.CommonDecision(proc.Universe(5))
		if err != nil {
			return nil, err
		}
		if d == msg.One {
			verdicts[i] = "weak validity holds"
		} else {
			verdicts[i] = "weak validity VIOLATED"
		}
	}
	if verdicts[0] == verdicts[1] {
		return nil, fmt.Errorf("E11 alg1 ablation: no behavioral difference")
	}
	tab.Rows = append(tab.Rows, []string{
		"Algorithm 1", "c1 chosen without v0-excluding sub-configuration", verdicts[0], verdicts[1],
	})

	tab.Notes = append(tab.Notes, "every ablated variant fails exactly the guarantee its mechanism protects; restoring the mechanism restores the guarantee")
	return tab, nil
}
