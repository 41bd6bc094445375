package experiments

import (
	"fmt"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/protocols/floodset"
	"expensive/internal/sim"
)

// E12 measures good-case latency: worst-case round bounds (Dolev-Strong's
// fixed t+1; plain FloodSet's t+1) versus the early-deciding FloodSet that
// adapts to the actual number of crashes f — the latency counterpart of
// the paper's theme that worst-case costs are unavoidable while good cases
// can be cheap. The crash schedule is the adversarial cascade: one crash
// per round with empty delivery.
func E12(n, t int) (*Table, error) {
	scheme := sig.NewIdeal("e12")
	tab := &Table{
		ID:    "E12",
		Title: fmt.Sprintf("Good-case latency — early stopping adapts to actual faults f (n=%d t=%d)", n, t),
		Header: []string{
			"actual crashes f", "floodset-early (rounds)", "f+2",
			"floodset (rounds)", "dolev-strong (rounds)", "t+1",
		},
	}
	proposals := make([]msg.Value, n)
	for i := range proposals {
		proposals[i] = msg.Value(fmt.Sprintf("v%d", n-i))
	}
	for f := 0; f <= t; f++ {
		specs := make(map[proc.ID]sim.CrashSpec, f)
		for i := 0; i < f; i++ {
			specs[proc.ID(i)] = sim.CrashSpec{Round: i + 1}
		}
		correct := proc.Range(proc.ID(f), proc.ID(n))

		early, err := latencyOf(floodset.NewEarlyStopping(floodset.Config{N: n, T: t}),
			n, t, floodset.RoundBound(t), proposals, sim.Crash(specs), correct)
		if err != nil {
			return nil, fmt.Errorf("E12 early f=%d: %w", f, err)
		}
		plain, err := latencyOf(floodset.New(floodset.Config{N: n, T: t}),
			n, t, floodset.RoundBound(t), proposals, sim.Crash(specs), correct)
		if err != nil {
			return nil, fmt.Errorf("E12 plain f=%d: %w", f, err)
		}
		// Dolev-Strong: the sender must stay correct for a comparable run;
		// crash the highest IDs instead.
		dsSpecs := make(map[proc.ID]sim.CrashSpec, f)
		for i := 0; i < f; i++ {
			dsSpecs[proc.ID(n-1-i)] = sim.CrashSpec{Round: i + 1}
		}
		dsCorrect := proc.Range(0, proc.ID(n-f))
		ds, err := latencyOf(dolevstrong.New(dolevstrong.Config{
			N: n, T: t, Sender: 0, Scheme: scheme, Tag: "e12", Default: "⊥",
		}), n, t, dolevstrong.RoundBound(t), proposals, sim.Crash(dsSpecs), dsCorrect)
		if err != nil {
			return nil, fmt.Errorf("E12 ds f=%d: %w", f, err)
		}

		if early > f+2 {
			return nil, fmt.Errorf("E12: early stopping took %d > f+2 = %d rounds", early, f+2)
		}
		tab.Rows = append(tab.Rows, []string{
			itoa(f), itoa(early), itoa(f + 2), itoa(plain), itoa(ds), itoa(t + 1),
		})
	}
	tab.Notes = append(tab.Notes,
		"early stopping decides in <= f+2 rounds under f actual crashes; the fixed-bound protocols always pay t+1",
		"latency adapts to actual faults — the paper shows worst-case *messages* cannot",
	)
	return tab, nil
}

func latencyOf(factory sim.Factory, n, t, bound int, proposals []msg.Value, plan sim.FaultPlan, correct proc.Set) (int, error) {
	e, err := leanRun(sim.Config{N: n, T: t, Proposals: proposals, MaxRounds: bound + 1}, factory, plan)
	if err != nil {
		return 0, err
	}
	if _, err := e.CommonDecision(correct); err != nil {
		return 0, err
	}
	maxR := 0
	for _, id := range correct.Members() {
		b := e.Behavior(id)
		r := b.DecisionRound()
		if r == 0 {
			r = b.RoundsRecorded() + 1
		}
		if r > maxR {
			maxR = r
		}
	}
	return maxR, nil
}
