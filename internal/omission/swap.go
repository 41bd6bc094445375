package omission

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// SwapOmission implements Algorithm 4: given an execution e and a process
// pi, it constructs the execution e' in which every receive-omission fault
// of pi is "swapped" for a send-omission fault of the corresponding
// sender. The new faulty set F' contains exactly the processes that commit
// an omission fault in e'.
//
// Per Lemma 15, if pi commits no send-omission faults in e, then e' is a
// valid execution indistinguishable from e to every process, with pi
// correct in e'. The caller is responsible for checking |F'| <= t (Lemma
// 15's precondition); this function only performs the transformation and
// structural checks.
func SwapOmission(e *sim.Execution, pi proc.ID) (*sim.Execution, error) {
	if e.Recording != sim.RecordFull {
		return nil, fmt.Errorf("swap_omission: requires a full trace, got recording level %q — re-run the configuration at sim.RecordFull", e.Recording)
	}
	b, err := behavior(e, pi)
	if err != nil {
		return nil, fmt.Errorf("swap_omission: %w", err)
	}
	//balint:allow leantier guarded: SwapOmission rejects non-full recordings above
	if n := len(b.AllSendOmitted()); n > 0 {
		return nil, fmt.Errorf("swap_omission: %s commits %d send-omission faults", pi, n)
	}

	// M: all messages receive-omitted by pi, keyed by identity (line 2).
	swapped := make(map[msg.Key]bool)
	//balint:allow leantier guarded: SwapOmission rejects non-full recordings above
	for _, m := range b.AllReceiveOmitted() {
		swapped[m.Key()] = true
	}

	newBehaviors := make([]*sim.Behavior, e.N)
	var newFaulty proc.Set
	for z := 0; z < e.N; z++ {
		src := e.Behaviors[z]
		nb := &sim.Behavior{ID: src.ID, Proposal: src.Proposal}
		faultyZ := false
		for _, f := range src.Fragments {
			nf := sim.Fragment{
				Round:    f.Round,
				Decided:  f.Decided,
				Decision: f.Decision,
				Received: append([]msg.Message{}, f.Received...),
			}
			// Move pi-bound messages in M from Sent to SendOmitted (line 9).
			for _, m := range f.Sent {
				if swapped[m.Key()] {
					nf.SendOmitted = append(nf.SendOmitted, m)
				} else {
					nf.Sent = append(nf.Sent, m)
				}
			}
			for _, m := range f.SendOmitted {
				nf.SendOmitted = append(nf.SendOmitted, m)
			}
			// Drop M from receive-omissions (only pi holds them).
			for _, m := range f.ReceiveOmitted {
				if !swapped[m.Key()] {
					nf.ReceiveOmitted = append(nf.ReceiveOmitted, m)
				}
			}
			if len(nf.SendOmitted) > 0 || len(nf.ReceiveOmitted) > 0 {
				faultyZ = true
			}
			nb.Fragments = append(nb.Fragments, nf)
		}
		if faultyZ {
			newFaulty = newFaulty.Add(proc.ID(z))
		}
		newBehaviors[z] = nb
	}

	out := &sim.Execution{
		N:         e.N,
		T:         e.T,
		Faulty:    newFaulty,
		Behaviors: newBehaviors,
		Rounds:    e.Rounds,
		Quiesced:  e.Quiesced,
	}
	if out.Faulty.Contains(pi) {
		return nil, fmt.Errorf("swap_omission: %s still faulty after swap", pi)
	}
	return out, nil
}
