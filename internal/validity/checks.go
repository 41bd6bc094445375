package validity

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/proc"
)

// Check is a pluggable per-execution validity property: given the
// proposal vector, the correct set, and the correct processes' common
// decision, a non-nil error is a validity violation. Termination and
// Agreement are checked by the caller (the campaign engine) before a
// Check runs.
//
// A problem states its validity property once, as an admissibility
// predicate over input configurations; AdmissibleCheck is that property's
// runtime form, which verdicts one recorded execution. Weak, Strong and
// Sender validity are checked only that way. The exceptions are the
// properties whose admissibility table is impractical or does not exist:
// VectorCheck (interactive consistency, whose Problem lists all 2^n
// output vectors), and graded broadcast's G1 and external validity (in
// their protocol packages), neither of which has a finite output domain.
type Check func(proposals []msg.Value, correct proc.Set, decision msg.Value) error

// Compat is a pairwise decision-compatibility relation replacing strict
// Agreement equality for protocols whose correct outputs legitimately
// differ — graded broadcast guarantees G2/G3 (neighboring grades, equal
// values for grades >= 1), not identical outputs. It must be symmetric;
// a non-nil error means the two correct decisions conflict.
type Compat func(a, b msg.Value) error

// VectorCheck is interactive consistency's IC-Validity: the decision is
// an encoded n-vector whose entry for every correct process must be that
// process's actual proposal. It stays a hand-written check rather than
// AdmissibleCheck(Interactive(n, t)), because building that Problem lists
// IC's 2^n output vectors for every target it is attached to. It reads
// msg.SharedVector's memoized vector in place; only a decision that is not
// a vector is decoded again, for the error's text.
func VectorCheck(proposals []msg.Value, correct proc.Set, decision msg.Value) error {
	vec, ok := msg.SharedVector(decision)
	if !ok {
		_, err := msg.DecodeVector(decision)
		return fmt.Errorf("decision %q is not an IC vector: %w", decision, err)
	}
	if len(vec) != len(proposals) {
		return fmt.Errorf("decided vector has %d entries, want %d", len(vec), len(proposals))
	}
	for i := range vec {
		if id := proc.ID(i); correct.Contains(id) && vec[id] != proposals[id] {
			return fmt.Errorf("correct %s proposed %q but the decided vector carries %q", id, proposals[id], vec[id])
		}
	}
	return nil
}

// AdmissibleCheck is the runtime form of a problem's validity property:
// it views the recorded run as the input configuration of its correct
// processes and requires the decision to be admissible under it. The
// view's n is the run's own size (len(proposals)), not p.N, so a hook
// built at (n, t) judges a run the shrinker has reduced to fewer
// processes by the same rule a hook built at the smaller size would.
func AdmissibleCheck(p Problem) Check {
	return func(proposals []msg.Value, correct proc.Set, decision msg.Value) error {
		c := observed(proposals, correct)
		if !p.Admissible(c, decision) {
			return fmt.Errorf("decided %q, which is not admissible under %v", decision, c)
		}
		return nil
	}
}

// observed is the input configuration a run exhibits: the proposals of
// its correct processes over Π = {0..len(proposals)-1}. It shares the
// proposals slice without copying; no InputConfig method writes vals.
func observed(proposals []msg.Value, correct proc.Set) InputConfig {
	return InputConfig{n: len(proposals), present: correct, vals: proposals}
}
