package experiments

import (
	"errors"
	"fmt"

	"expensive/internal/catalog"
	"expensive/internal/crypto/sig"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/eig"
	"expensive/internal/protocols/external"
	"expensive/internal/protocols/ic"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/protocols/reduction"
	"expensive/internal/sim"
)

// blocks signs the two client transactions, block-0 and block-1, that E5
// and E8 propose to the external-validity protocols under the scheme key.
func blocks(key string) (sig.Scheme, *external.Authority, lowerbound.Lift, error) {
	scheme := sig.NewIdeal(key)
	auth := external.NewAuthority(scheme)
	tx0, err0 := auth.NewTx(external.ClientBase, "block-0")
	tx1, err1 := auth.NewTx(external.ClientBase+1, "block-1")
	return scheme, auth, lowerbound.Lift{V0: tx0, V1: tx1}, errors.Join(err0, err1)
}

func countRun(factory sim.Factory, n, t, rounds int, proposals []msg.Value) (int, msg.Value, error) {
	e, err := leanRun(sim.Config{N: n, T: t, Proposals: proposals, MaxRounds: sim.Horizon(rounds)}, factory, sim.NoFaults{})
	if err != nil {
		return 0, msg.NoDecision, err
	}
	d, err := e.CommonDecision(proc.Universe(n))
	if err != nil {
		return 0, msg.NoDecision, err
	}
	return e.CorrectMessages(), d, nil
}

// E5 measures Algorithm 1's zero-message overhead: weak consensus built on
// four different agreement problems has exactly the message complexity of
// the underlying protocol (Theorem 3's mechanism).
func E5(n, t int) (*Table, error) {
	scheme, auth, txs, err := blocks("e5")
	if err != nil {
		return nil, err
	}

	type underlying struct {
		name    string
		factory sim.Factory
		rounds  int
		lift    lowerbound.Lift
	}
	binary := lowerbound.Lift{V0: msg.Zero, V1: msg.One}
	var cases []underlying
	if n > 4*t {
		cases = append(cases, underlying{
			name:    "strong consensus (phase-king)",
			factory: phaseking.New(phaseking.Config{N: n, T: t}),
			rounds:  phaseking.RoundBound(t),
			lift:    binary,
		})
	}
	if n > 3*t {
		cases = append(cases, underlying{
			name:    "interactive consistency (EIG)",
			factory: eig.New(eig.Config{N: n, T: t, Default: msg.One}),
			rounds:  eig.RoundBound(t),
			lift:    binary,
		})
	}
	cases = append(cases,
		underlying{
			name:    "interactive consistency (n × Dolev-Strong)",
			factory: ic.New(ic.Config{N: n, T: t, Scheme: scheme, Default: msg.One}),
			rounds:  ic.RoundBound(t),
			lift:    binary,
		},
		underlying{
			name:    "external validity (IC + first-valid)",
			factory: external.New(external.Config{N: n, T: t, Scheme: scheme, Authority: auth, Fallback: txs.V0}),
			rounds:  external.RoundBound(t),
			lift:    txs,
		},
	)

	tab := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("Theorem 3 / Algorithm 1 — zero-message reduction to weak consensus (n=%d t=%d)", n, t),
		Header: []string{
			"underlying problem P", "msgs P (c0)", "msgs weak-from-P (propose 0)",
			"msgs P (c1)", "msgs weak-from-P (propose 1)", "overhead",
		},
	}
	for _, u := range cases {
		configs := [2][]msg.Value{msg.Uniform(n, u.lift.V0), msg.Uniform(n, u.lift.V1)}
		spec, err := reduction.DeriveAlg1(u.factory, n, t, sim.Horizon(u.rounds), configs[0], configs[1])
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", u.name, err)
		}
		wrapped := reduction.WeakFromAgreement(u.factory, spec)
		row, overhead := []string{u.name}, "0 msgs"
		for b, c := range configs {
			m, _, err := countRun(u.factory, n, t, u.rounds, c)
			if err != nil {
				return nil, fmt.Errorf("E5 %s: %w", u.name, err)
			}
			w, d, err := countRun(wrapped, n, t, u.rounds, msg.Uniform(n, msg.Bit(b)))
			if err != nil {
				return nil, fmt.Errorf("E5 %s: %w", u.name, err)
			}
			if d != msg.Bit(b) {
				return nil, fmt.Errorf("E5 %s: weak validity broken (proposing %s decided %q)", u.name, msg.Bit(b), d)
			}
			if w != m {
				overhead = "NONZERO (bug)"
			}
			row = append(row, itoa(m), itoa(w))
		}
		tab.Rows = append(tab.Rows, append(row, overhead))
	}
	tab.Notes = append(tab.Notes,
		"identical columns demonstrate the reduction exchanges no extra message — the Ω(t²) bound transfers verbatim",
	)
	return tab, nil
}

// E8 runs the Corollary 1 pipeline: the sub-quadratic external-validity
// protocol is lifted to weak consensus by Algorithm 1 and falsified; the
// registered sound construction, lifted the same way, survives with
// quadratic traffic.
func E8(n, t int, opts runner.Options) (*Table, error) {
	scheme, auth, txs, err := blocks("e8")
	if err != nil {
		return nil, err
	}
	sound, _ := catalog.Lookup("external") // linked by catalog/all
	cands := []lowerbound.Candidate{
		{
			Name: "leader-announce (cheap)", Complexity: "n-1 msgs", Lift: txs,
			Build: func(n, _ int) (sim.Factory, int, error) {
				return external.CheapLeader(n, auth, txs.V0), external.CheapLeaderRounds, nil
			},
		},
		{
			Name: "IC + first-valid (sound)", Sound: true, Complexity: "Θ(n³) msgs", Lift: txs,
			Build: sound.Rebuilder(catalog.Params{Scheme: scheme, Default: txs.V0}),
		},
	}

	tab := &Table{
		ID:     "E8",
		Title:  fmt.Sprintf("Corollary 1 — External Validity agreement is quadratic too (n=%d t=%d)", n, t),
		Header: []string{"protocol", "complexity", "lifted via Alg. 1", "falsifier verdict", "max msgs", "t²/32"},
	}
	tab.Rows, err = falsifyRows(cands, opts, func(lowerbound.Candidate) (int, int) { return n, t },
		func(c lowerbound.Candidate, rep *lowerbound.Report) []string {
			verdict := "budget respected (sound)"
			if rep.Broken() {
				verdict = rep.Violation.Kind + " violated (machine-checked)"
			}
			return []string{c.Name, c.Complexity, "yes", verdict, itoa(rep.MaxCorrectMessages), itoa(rep.Threshold)}
		})
	if err != nil {
		return nil, fmt.Errorf("E8 %w", err)
	}
	tab.Notes = append(tab.Notes,
		"both protocols have two fully-correct executions deciding different transactions, so Corollary 1 applies",
	)
	return tab, nil
}
