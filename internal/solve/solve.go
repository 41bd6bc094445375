// Package solve is the constructive half of the general solvability
// theorem (Theorem 4) as a library feature: given any Byzantine agreement
// problem — expressed as a validity property over finite domains — it
// decides solvability and, when the containment condition holds,
// *derives a working protocol automatically*:
//
//	problem  --CheckCC-->  Γ  --Algorithm 2-->  IC + Γ  =  protocol
//
// Authenticated derivations run n parallel Dolev-Strong broadcasts (any
// t < n); unauthenticated derivations run EIG (n > 3t). Trivial problems
// are solved with zero communication by deciding the always-admissible
// value, exactly as §4.1 observes.
package solve

import (
	"fmt"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/eig"
	"expensive/internal/protocols/ic"
	"expensive/internal/protocols/reduction"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// Derived is a protocol synthesized from a validity property.
type Derived struct {
	// Factory builds the honest machines.
	Factory sim.Factory
	// Rounds is the decision-round bound.
	Rounds int
	// Mode names the substrate: "trivial", "authenticated-ic" or
	// "unauthenticated-eig".
	Mode string
	// Verdict is the full Theorem 4 evaluation.
	Verdict validity.Solvability
}

// ErrUnsolvable is wrapped by derivation failures caused by the theorem
// itself (CC fails, or n <= 3t without authentication).
var ErrUnsolvable = fmt.Errorf("problem is unsolvable (Theorem 4)")

// Authenticated derives an authenticated protocol for p, valid for any
// t < n. It fails with ErrUnsolvable iff p is non-trivial and violates the
// containment condition.
func Authenticated(p validity.Problem, scheme sig.Scheme) (*Derived, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	verdict, cc := p.SolveCC()
	if verdict.Trivial {
		return trivial(p, verdict), nil
	}
	if !verdict.CC {
		return nil, fmt.Errorf("%s (n=%d, t=%d): containment condition fails (%v): %w",
			p.Name, p.N, p.T, verdict.CCWitness, ErrUnsolvable)
	}
	gamma, err := p.GammaFunc(cc)
	if err != nil {
		return nil, err
	}
	icf := ic.New(ic.Config{N: p.N, T: p.T, Scheme: scheme, Default: p.Inputs[0]})
	return &Derived{
		Factory: reduction.FromIC(icf, reduction.Gamma(gamma)),
		Rounds:  ic.RoundBound(p.T),
		Mode:    "authenticated-ic",
		Verdict: verdict,
	}, nil
}

// Unauthenticated derives a signature-free protocol for p, requiring
// n > 3t. It fails with ErrUnsolvable iff p is non-trivial and either CC
// fails or n <= 3t (Lemma 10: below that resilience only trivial problems
// are unauthenticated-solvable).
func Unauthenticated(p validity.Problem) (*Derived, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	verdict, cc := p.SolveCC()
	if verdict.Trivial {
		return trivial(p, verdict), nil
	}
	if !verdict.CC {
		return nil, fmt.Errorf("%s (n=%d, t=%d): containment condition fails (%v): %w",
			p.Name, p.N, p.T, verdict.CCWitness, ErrUnsolvable)
	}
	if p.N <= 3*p.T {
		return nil, fmt.Errorf("%s: n=%d <= 3t=%d without authentication: %w",
			p.Name, p.N, 3*p.T, ErrUnsolvable)
	}
	gamma, err := p.GammaFunc(cc)
	if err != nil {
		return nil, err
	}
	eigf := eig.New(eig.Config{N: p.N, T: p.T, Default: p.Inputs[0]})
	return &Derived{
		Factory: reduction.FromIC(eigf, reduction.Gamma(gamma)),
		Rounds:  eig.RoundBound(p.T),
		Mode:    "unauthenticated-eig",
		Verdict: verdict,
	}, nil
}

func trivial(p validity.Problem, verdict validity.Solvability) *Derived {
	v := verdict.TrivialValue
	return &Derived{
		Factory: func(proc.ID, msg.Value) sim.Machine { return &trivialMachine{v: v} },
		Rounds:  1,
		Mode:    "trivial",
		Verdict: verdict,
	}
}

// trivialMachine decides the always-admissible value with zero messages.
type trivialMachine struct {
	sim.DecideOnce
	v msg.Value
}

var _ sim.Machine = (*trivialMachine)(nil)

func (m *trivialMachine) Init() []sim.Outgoing { return nil }

func (m *trivialMachine) Step(round int, _ []msg.Message) []sim.Outgoing {
	if round == 1 {
		m.Decide(m.v)
	}
	return nil
}

// Check runs the derived protocol on an input configuration under a fault
// plan and verifies Termination, Agreement and the problem's validity
// property on the outcome. It is the library's acceptance test for derived
// protocols and the engine behind the solvability experiment (E6).
func Check(p validity.Problem, d *Derived, c validity.InputConfig, byzantine map[proc.ID]sim.Machine) error {
	if c.N() != p.N {
		return fmt.Errorf("config is for n=%d, problem has n=%d", c.N(), p.N)
	}
	correct := c.Pi()
	faulty := correct.Complement(p.N)
	if faulty.Len() > p.T {
		return fmt.Errorf("config leaves %d faulty > t=%d", faulty.Len(), p.T)
	}
	proposals := make([]msg.Value, p.N)
	for i := 0; i < p.N; i++ {
		if v, ok := c.Proposal(proc.ID(i)); ok {
			proposals[i] = v
		} else {
			proposals[i] = p.Inputs[0] // nominal value; the process is faulty
		}
	}
	machines := make(map[proc.ID]sim.Machine)
	for _, id := range faulty.Members() {
		if m, ok := byzantine[id]; ok && m != nil {
			machines[id] = m
		} else {
			machines[id] = sim.Silent{} // the default Byzantine behavior
		}
	}
	cfg := sim.Config{N: p.N, T: p.T, Proposals: proposals, MaxRounds: sim.Horizon(d.Rounds)}
	exec, err := sim.Run(cfg, d.Factory, sim.ByzantinePlan{Machines: machines})
	if err != nil {
		return fmt.Errorf("run derived protocol: %w", err)
	}
	decision, err := exec.CommonDecision(correct)
	if err != nil {
		return fmt.Errorf("termination/agreement: %w", err)
	}
	if !p.Admissible(c, decision) {
		return fmt.Errorf("decided %q, which is not admissible under %v (validity violated)", decision, c)
	}
	return nil
}
