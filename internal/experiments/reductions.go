package experiments

import (
	"fmt"

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

func countRun(factory sim.Factory, n, t, rounds int, proposals []msg.Value) (int, msg.Value, error) {
	// Callers read the common decision and the message count only — lean tier.
	cfg := sim.Config{N: n, T: t, Proposals: proposals, MaxRounds: sim.Horizon(rounds), Recording: sim.RecordDecisions}
	e, err := sim.Run(cfg, factory, sim.NoFaults{})
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
	scheme := sig.NewIdeal("e5")
	auth := external.NewAuthority(scheme)
	tx0, err := auth.NewTx(external.ClientBase, "block-0")
	if err != nil {
		return nil, err
	}
	tx1, err := auth.NewTx(external.ClientBase+1, "block-1")
	if err != nil {
		return nil, err
	}

	type underlying struct {
		name    string
		factory sim.Factory
		rounds  int
		c0, c1  []msg.Value
	}
	var cases []underlying
	if n > 4*t {
		cases = append(cases, underlying{
			name:    "strong consensus (phase-king)",
			factory: phaseking.New(phaseking.Config{N: n, T: t}),
			rounds:  phaseking.RoundBound(t),
			c0:      msg.Uniform(n, msg.Zero),
			c1:      msg.Uniform(n, msg.One),
		})
	}
	if n > 3*t {
		cases = append(cases, underlying{
			name:    "interactive consistency (EIG)",
			factory: eig.New(eig.Config{N: n, T: t, Default: msg.One}),
			rounds:  eig.RoundBound(t),
			c0:      msg.Uniform(n, msg.Zero),
			c1:      msg.Uniform(n, msg.One),
		})
	}
	cases = append(cases,
		underlying{
			name:    "interactive consistency (n × Dolev-Strong)",
			factory: ic.New(ic.Config{N: n, T: t, Scheme: scheme, Default: msg.One}),
			rounds:  ic.RoundBound(t),
			c0:      msg.Uniform(n, msg.Zero),
			c1:      msg.Uniform(n, msg.One),
		},
		underlying{
			name:    "external validity (IC + first-valid)",
			factory: external.New(external.Config{N: n, T: t, Scheme: scheme, Authority: auth, Fallback: tx0}),
			rounds:  external.RoundBound(t),
			c0:      msg.Uniform(n, tx0),
			c1:      msg.Uniform(n, tx1),
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
		spec, err := reduction.DeriveAlg1(u.factory, n, t, sim.Horizon(u.rounds), u.c0, u.c1)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", u.name, err)
		}
		wrapped := reduction.WeakFromAgreement(u.factory, spec)

		m0, _, err := countRun(u.factory, n, t, u.rounds, u.c0)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", u.name, err)
		}
		w0, d0, err := countRun(wrapped, n, t, u.rounds, msg.Uniform(n, msg.Zero))
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", u.name, err)
		}
		m1, _, err := countRun(u.factory, n, t, u.rounds, u.c1)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", u.name, err)
		}
		w1, d1, err := countRun(wrapped, n, t, u.rounds, msg.Uniform(n, msg.One))
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", u.name, err)
		}
		if d0 != msg.Zero || d1 != msg.One {
			return nil, fmt.Errorf("E5 %s: weak validity broken (decided %q/%q)", u.name, d0, d1)
		}
		overhead := "0 msgs"
		if w0 != m0 || w1 != m1 {
			overhead = "NONZERO (bug)"
		}
		tab.Rows = append(tab.Rows, []string{u.name, itoa(m0), itoa(w0), itoa(m1), itoa(w1), overhead})
	}
	tab.Notes = append(tab.Notes,
		"identical columns demonstrate the reduction exchanges no extra message — the Ω(t²) bound transfers verbatim",
	)
	return tab, nil
}

// E8 runs the Corollary 1 pipeline: the sub-quadratic external-validity
// protocol is lifted to weak consensus by Algorithm 1 and falsified; the
// sound IC-based construction survives with quadratic traffic. The two
// lift-and-falsify pipelines are independent and fan out across the
// worker pool.
func E8(n, t int, opts runner.Options) (*Table, error) {
	scheme := sig.NewIdeal("e8")
	auth := external.NewAuthority(scheme)
	tx0, err := auth.NewTx(external.ClientBase, "block-0")
	if err != nil {
		return nil, err
	}
	tx1, err := auth.NewTx(external.ClientBase+1, "block-1")
	if err != nil {
		return nil, err
	}

	tab := &Table{
		ID:     "E8",
		Title:  fmt.Sprintf("Corollary 1 — External Validity agreement is quadratic too (n=%d t=%d)", n, t),
		Header: []string{"protocol", "complexity", "lifted via Alg. 1", "falsifier verdict", "max msgs", "t²/32"},
	}

	lopts := lowerbound.Options{Parallelism: opts.Parallelism, Ctx: opts.Context()}
	pipelines := []func() ([]string, error){
		// Cheap external protocol: must be falsified, certificate re-checked.
		func() ([]string, error) {
			cheapInner := external.CheapLeader(n, auth, tx0)
			spec, err := reduction.DeriveAlg1(cheapInner, n, t, external.CheapLeaderRounds+1, msg.Uniform(n, tx0), msg.Uniform(n, tx1))
			if err != nil {
				return nil, err
			}
			lifted := reduction.WeakFromAgreement(cheapInner, spec)
			rep, err := lowerbound.Falsify("cheap-external", lifted, external.CheapLeaderRounds, n, t, lopts)
			if err != nil {
				return nil, err
			}
			verdict := "survived (unexpected)"
			if rep.Broken() {
				if err := lowerbound.CheckViolation(rep.Violation, lifted, external.CheapLeaderRounds); err != nil {
					return nil, fmt.Errorf("E8 certificate recheck: %w", err)
				}
				verdict = rep.Violation.Kind + " violated (machine-checked)"
			}
			return []string{
				"leader-announce (cheap)", "n-1 msgs", "yes", verdict, itoa(rep.MaxCorrectMessages), itoa(rep.Threshold),
			}, nil
		},
		// Sound external protocol: must respect the budget.
		func() ([]string, error) {
			soundInner := external.New(external.Config{N: n, T: t, Scheme: scheme, Authority: auth, Fallback: tx0})
			soundSpec, err := reduction.DeriveAlg1(soundInner, n, t, sim.Horizon(external.RoundBound(t)), msg.Uniform(n, tx0), msg.Uniform(n, tx1))
			if err != nil {
				return nil, err
			}
			liftedSound := reduction.WeakFromAgreement(soundInner, soundSpec)
			repSound, err := lowerbound.Falsify("sound-external", liftedSound, external.RoundBound(t), n, t, lopts)
			if err != nil {
				return nil, err
			}
			verdictSound := "budget respected (sound)"
			if repSound.Broken() {
				verdictSound = "falsified (unexpected)"
			}
			return []string{
				"IC + first-valid (sound)", "Θ(n³) msgs", "yes", verdictSound, itoa(repSound.MaxCorrectMessages), itoa(repSound.Threshold),
			}, nil
		},
	}
	rows, err := runner.Map(opts.Context(), opts.Workers(), len(pipelines), func(i int) ([]string, error) {
		return pipelines[i]()
	})
	if err != nil {
		return nil, err
	}
	tab.Rows = rows
	tab.Notes = append(tab.Notes,
		"both protocols have two fully-correct executions deciding different transactions, so Corollary 1 applies",
	)
	return tab, nil
}
