package omission

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Mergeable implements Definition 2, generalized over the proposal bit:
// the executions E_B(k1) (uniform proposal propB) and E_C(k2) (uniform
// proposal propC) are mergeable iff both groups are isolated from round 1,
// or the isolation rounds are at most one apart and the proposals agree.
func Mergeable(k1, k2 int, propB, propC msg.Value) bool {
	if k1 == 1 && k2 == 1 {
		return true
	}
	d := k1 - k2
	if d < 0 {
		d = -d
	}
	return d <= 1 && propB == propC
}

// MergeSpec names the ingredients of the merge procedure (Algorithm 5): the
// sources and the rounds from which Lemma 16's execution isolates B and C.
type MergeSpec struct {
	Part proc.Partition
	// EB is the execution in which group B is isolated from round KB.
	EB *sim.Execution
	KB int
	// EC is the execution in which group C is isolated from round KC.
	EC *sim.Execution
	KC int
}

// UniformProposal returns the proposal shared by every process of e, or an
// error if proposals are not uniform. The Table 1 executions are all
// uniform-proposal by construction.
func UniformProposal(e *sim.Execution) (msg.Value, error) {
	p := e.Behavior(0).Proposal
	for _, b := range e.Behaviors {
		if b.Proposal != p {
			return msg.NoDecision, fmt.Errorf("proposals not uniform: %s proposes %q, %s proposes %q",
				b.ID, b.Proposal, e.Behavior(0).ID, p)
		}
	}
	return p, nil
}

// Merge implements Algorithm 5 as Lemma 16 states its outcome: it runs the
// protocol for exactly horizon rounds, A and B proposing as in spec.EB and
// C as in spec.EC, with B isolated from KB and C from KC. It then checks
// the lemma's three conclusions: the run is a valid execution, B and C are
// isolated as claimed, and each process of B (C) receives what it received
// in spec.EB (spec.EC) — so, machines being deterministic, it sends and
// decides what Algorithm 5 replays. A failed check is returned as an error.
func Merge(spec MergeSpec, factory sim.Factory, horizon int) (*sim.Execution, error) {
	part := spec.Part
	if spec.EB.N != part.N || spec.EC.N != part.N {
		return nil, fmt.Errorf("merge: sizes differ: partition n=%d, EB n=%d, EC n=%d", part.N, spec.EB.N, spec.EC.N)
	}
	if err := part.Validate(); err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	if spec.EB.Recording != sim.RecordFull || spec.EC.Recording != sim.RecordFull {
		return nil, fmt.Errorf("merge: requires full traces, got EB=%q EC=%q — re-run the configurations at sim.RecordFull",
			spec.EB.Recording, spec.EC.Recording)
	}
	if !spec.EB.Faulty.Equal(part.B) {
		return nil, fmt.Errorf("merge: EB faulty set %v != B %v", spec.EB.Faulty, part.B)
	}
	if !spec.EC.Faulty.Equal(part.C) {
		return nil, fmt.Errorf("merge: EC faulty set %v != C %v", spec.EC.Faulty, part.C)
	}
	propB, err := UniformProposal(spec.EB)
	if err != nil {
		return nil, fmt.Errorf("merge: EB: %w", err)
	}
	propC, err := UniformProposal(spec.EC)
	if err != nil {
		return nil, fmt.Errorf("merge: EC: %w", err)
	}
	if !Mergeable(spec.KB, spec.KC, propB, propC) {
		return nil, fmt.Errorf("merge: executions not mergeable (kB=%d kC=%d propB=%q propC=%q)",
			spec.KB, spec.KC, propB, propC)
	}
	if horizon < spec.EB.Rounds || horizon < spec.EC.Rounds {
		return nil, fmt.Errorf("merge: horizon %d shorter than sources (%d, %d)",
			horizon, spec.EB.Rounds, spec.EC.Rounds)
	}

	// Initial states: A and B take EB's proposals, C takes EC's (lines 4-7).
	proposals := spec.EB.Proposals()
	for _, id := range part.C.Members() {
		proposals[id] = spec.EC.Behavior(id).Proposal
	}
	isoB, isoC := Isolation(part.B, spec.KB), Isolation(part.C, spec.KC)
	plan := sim.OmissionPlan{
		F:         part.B.Union(part.C),
		ReceiveFn: func(m msg.Message) bool { return isoB.ReceiveFn(m) || isoC.ReceiveFn(m) },
	}
	cfg := sim.Config{N: part.N, T: spec.EB.T, Proposals: proposals, MaxRounds: horizon, DisableEarlyStop: true}
	out, err := sim.Run(cfg, factory, plan)
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}

	// Lemma 16's three conclusions, checked.
	//balint:allow leantier the merged run is recorded at sim.RecordFull, cfg's zero Recording
	if err := Validate(out); err != nil {
		return nil, fmt.Errorf("merge: result is not a valid execution: %w", err)
	}
	for _, g := range [2]struct {
		name string
		set  proc.Set
		k    int
		src  *sim.Execution
	}{{"B", part.B, spec.KB, spec.EB}, {"C", part.C, spec.KC, spec.EC}} {
		if err := CheckIsolated(out, g.set, g.k); err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
		for _, id := range g.set.Members() {
			if err := Indistinguishable(out, g.src, id); err != nil {
				return nil, fmt.Errorf("merge: %s not indistinguishable from source: %w", g.name, err)
			}
		}
	}
	return out, nil
}
