package validity

import (
	"expensive/internal/msg"
	"expensive/internal/proc"
)

// BinaryInputs is the binary proposal domain {0, 1}.
func BinaryInputs() []msg.Value { return []msg.Value{msg.Zero, msg.One} }

// Weak builds binary weak consensus [28, 37, 79, 101]: if all processes
// are correct and propose the same value, that value must be decided;
// otherwise anything goes. The paper proves this is the weakest
// non-trivial agreement problem (§4.2).
func Weak(n, t int) Problem {
	return Problem{
		Name:    "weak-consensus",
		N:       n,
		T:       t,
		Inputs:  BinaryInputs(),
		Outputs: BinaryInputs(),
		Admissible: func(c InputConfig, v msg.Value) bool {
			if !c.Full() {
				return true
			}
			u, ok := c.Unanimous()
			if !ok {
				return true
			}
			return v == u
		},
	}
}

// Strong builds binary strong consensus [37, 45, 78]: if all correct
// processes propose the same value, that value must be decided. Theorem 5:
// authenticated-solvable iff n > 2t.
func Strong(n, t int) Problem {
	return Problem{
		Name:    "strong-consensus",
		N:       n,
		T:       t,
		Inputs:  BinaryInputs(),
		Outputs: BinaryInputs(),
		Admissible: func(c InputConfig, v msg.Value) bool {
			u, ok := c.Unanimous()
			if !ok {
				return true
			}
			return v == u
		},
	}
}

// Broadcast builds Byzantine broadcast [11, 88, 96, 98] with the given
// designated sender: if the sender is correct, its proposal must be
// decided (Sender Validity). The Dolev-Reischuk bound's original problem.
func Broadcast(n, t int, sender proc.ID) Problem {
	return Problem{
		Name:    "byzantine-broadcast",
		N:       n,
		T:       t,
		Inputs:  BinaryInputs(),
		Outputs: BinaryInputs(),
		Admissible: func(c InputConfig, v msg.Value) bool {
			sv, ok := c.Proposal(sender)
			if !ok {
				return true
			}
			return v == sv
		},
	}
}

// CorrectSource builds the "decided value was proposed by a correct
// process" property (a strengthening sometimes called justified or
// validated consensus). Like Strong, its CC frontier is n > 2t for binary
// inputs — a second datapoint for the solvability matrix.
func CorrectSource(n, t int) Problem {
	return Problem{
		Name:    "correct-source",
		N:       n,
		T:       t,
		Inputs:  BinaryInputs(),
		Outputs: BinaryInputs(),
		Admissible: func(c InputConfig, v msg.Value) bool {
			for _, id := range c.Pi().Members() {
				if p, _ := c.Proposal(id); p == v {
					return true
				}
			}
			return false
		},
	}
}

// Interactive builds interactive consistency [18, 54, 78]: processes
// decide full I_n vectors whose correct entries match the actual
// proposals — IC-Validity(c) = {c' ∈ I_n | c' ⊒ c}. The universal
// substrate of Lemma 9.
//
// Its predicate admits v under c iff v encodes a vector of n entries (any
// n strings, not only the 2^n Outputs) that equals c's proposal at every
// process of π(c). It reads msg.SharedVector's memoized vector in place,
// so Theorem 4's table asks it 2^n times per configuration without
// decoding or copying.
func Interactive(n, t int) Problem {
	inputs := BinaryInputs()
	var outputs []msg.Value
	total := 1
	for i := 0; i < n; i++ {
		total *= len(inputs)
	}
	for idx := 0; idx < total; idx++ {
		vec := make([]msg.Value, n)
		x := idx
		for i := 0; i < n; i++ {
			vec[i] = inputs[x%len(inputs)]
			x /= len(inputs)
		}
		outputs = append(outputs, msg.EncodeVector(vec))
	}
	return Problem{
		Name:    "interactive-consistency",
		N:       n,
		T:       t,
		Inputs:  inputs,
		Outputs: outputs,
		Admissible: func(c InputConfig, v msg.Value) bool {
			vec, ok := msg.SharedVector(v)
			if !ok || len(vec) != n || c.n != n {
				return false
			}
			// π(c) ⊆ Π by construction, so ranging over c.vals visits all of it.
			for id, u := range c.vals {
				if c.present.Contains(proc.ID(id)) && u != vec[id] {
					return false
				}
			}
			return true
		},
	}
}

// Constant builds the trivial problem that always admits the fixed value k
// (and only it). §4.1's canonical trivial problem: decidable with zero
// communication.
func Constant(n, t int, k msg.Value) Problem {
	return Problem{
		Name:    "constant",
		N:       n,
		T:       t,
		Inputs:  BinaryInputs(),
		Outputs: []msg.Value{k},
		Admissible: func(InputConfig, msg.Value) bool {
			return true
		},
	}
}

// Standard returns the catalogue used by the solvability matrix
// (experiment E6).
func Standard(n, t int) []Problem {
	return []Problem{
		Weak(n, t),
		Strong(n, t),
		Broadcast(n, t, 0),
		CorrectSource(n, t),
		Interactive(n, t),
		Constant(n, t, msg.One),
	}
}
