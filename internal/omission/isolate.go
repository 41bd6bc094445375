package omission

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Isolation returns the fault plan of Definition 1: every process of group
// is corrupted, commits no send-omission faults, and receive-omits exactly
// the messages arriving from outside the group in rounds >= fromRound.
func Isolation(group proc.Set, fromRound int) sim.OmissionPlan {
	return sim.OmissionPlan{
		F: group,
		ReceiveFn: func(m msg.Message) bool {
			return group.Contains(m.Receiver) && !group.Contains(m.Sender) && m.Round >= fromRound
		},
	}
}

// CheckIsolated verifies that, in execution e, group is isolated from
// fromRound exactly as Definition 1 demands: members are faulty, never
// send-omit, and receive-omit a message iff it comes from outside the
// group in a round >= fromRound.
func CheckIsolated(e *sim.Execution, group proc.Set, fromRound int) error {
	for _, id := range group.Members() {
		b, err := behavior(e, id)
		if err != nil {
			return fmt.Errorf("isolation: %w", err)
		}
		if !e.Faulty.Contains(id) {
			return fmt.Errorf("isolation: %s is not faulty", id)
		}
		//balint:allow leantier Definition 1 checks need full traces; RunIsolatedAt gates this on RecordFull
		if n := len(b.AllSendOmitted()); n > 0 {
			return fmt.Errorf("isolation: %s send-omits %d messages", id, n)
		}
		for _, f := range b.Fragments {
			for _, m := range f.Received {
				if !group.Contains(m.Sender) && m.Round >= fromRound {
					return fmt.Errorf("isolation: %s received %v from outside the group after round %d",
						id, m, fromRound)
				}
			}
			for _, m := range f.ReceiveOmitted {
				if group.Contains(m.Sender) {
					return fmt.Errorf("isolation: %s receive-omitted in-group message %v", id, m)
				}
				if m.Round < fromRound {
					return fmt.Errorf("isolation: %s receive-omitted %v before round %d", id, m, fromRound)
				}
			}
		}
	}
	return nil
}

// RunIsolated runs factory with every process proposing prop and the given
// group isolated from round fromRound — the executions E_G(k)_b of
// Table 1. The returned execution is validated against Appendix A.1.6.
func RunIsolated(n, t int, factory sim.Factory, prop msg.Value, group proc.Set, fromRound, horizon int) (*sim.Execution, error) {
	return RunIsolatedAt(n, t, factory, prop, group, fromRound, horizon, sim.RecordFull)
}

// RunIsolatedAt is RunIsolated at an explicit recording tier. Lean
// executions skip the Appendix A.1.6 and Definition 1 validation (both
// need message identities); callers that probe lean re-run the same
// deterministic configuration at sim.RecordFull — where the checks do
// run — before using the trace as evidence.
func RunIsolatedAt(n, t int, factory sim.Factory, prop msg.Value, group proc.Set, fromRound, horizon int, rec sim.Recording) (*sim.Execution, error) {
	cfg := sim.Config{N: n, T: t, Proposals: msg.Uniform(n, prop), MaxRounds: horizon, Recording: rec}
	exec, err := sim.Run(cfg, factory, Isolation(group, fromRound))
	if err != nil {
		return nil, fmt.Errorf("run isolated %v from round %d: %w", group, fromRound, err)
	}
	if rec != sim.RecordFull {
		return exec, nil
	}
	//balint:allow leantier guarded: non-full recordings returned early above
	if err := Validate(exec); err != nil {
		return nil, fmt.Errorf("isolated execution invalid: %w", err)
	}
	if err := CheckIsolated(exec, group, fromRound); err != nil {
		return nil, err
	}
	return exec, nil
}
