package validity_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/validity"
)

// fuzzProblem is the problem a FuzzCheckCCMatchesReference input names:
// validity.Standard(n, t)[std-1] when std > 0, and otherwise a random
// admissibility predicate over up to three inputs and up to 70 outputs
// (two bitset words), admitting each (c, v) with probability about
// density/256 by a hash of seed, c and v.
func fuzzProblem(n, t, std, inputs, outputs uint8, seed uint64, density uint8) (validity.Problem, bool) {
	if n < 2 || t >= n {
		return validity.Problem{}, false
	}
	if std > 0 {
		if n > 6 {
			return validity.Problem{}, false // Interactive lists 2^n outputs
		}
		all := validity.Standard(int(n), int(t))
		if int(std) > len(all) {
			return validity.Problem{}, false
		}
		return all[std-1], true
	}
	if n > 5 || inputs < 1 || inputs > 3 || outputs < 1 || outputs > 70 {
		return validity.Problem{}, false
	}
	p := validity.Problem{Name: "fuzz", N: int(n), T: int(t)}
	for i := 0; i < int(inputs); i++ {
		p.Inputs = append(p.Inputs, msg.Value(strconv.Itoa(i)))
	}
	for j := 0; j < int(outputs); j++ {
		p.Outputs = append(p.Outputs, msg.Value("o"+strconv.Itoa(j)))
	}
	p.Admissible = func(c validity.InputConfig, v msg.Value) bool {
		// FNV-1a over seed, then each process's proposal or its absence,
		// then v.
		h := uint64(14695981039346656037) ^ seed
		mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
		for id := proc.ID(0); int(id) < c.N(); id++ {
			u, present := c.Proposal(id)
			if !present {
				u = "-"
			}
			for i := 0; i < len(u); i++ {
				mix(u[i])
			}
			mix('|')
		}
		for i := 0; i < len(v); i++ {
			mix(v[i])
		}
		return uint8(h>>29) < density
	}
	return p, true
}

func witnessString(w *validity.CCWitness) string {
	if w == nil {
		return "<nil>"
	}
	return w.String()
}

// FuzzCheckCCMatchesReference holds CheckCC, IsTrivial and SolveCC, which
// read one admissibility table, to the enumerating checker they replaced
// (reference_test.go): the same verdict, the same Γ on every
// configuration, the same witness text, the same trivial value.
func FuzzCheckCCMatchesReference(f *testing.F) {
	for n := uint8(2); n <= 6; n++ {
		for t := uint8(0); t < n; t++ {
			for std := uint8(1); std <= uint8(len(validity.Standard(int(n), int(t)))); std++ {
				f.Add(n, t, std, uint8(0), uint8(0), uint64(0), uint8(0))
			}
		}
	}
	f.Add(uint8(4), uint8(1), uint8(0), uint8(2), uint8(70), uint64(1), uint8(250))
	f.Add(uint8(5), uint8(2), uint8(0), uint8(3), uint8(66), uint64(2), uint8(254))
	f.Add(uint8(3), uint8(2), uint8(0), uint8(1), uint8(65), uint64(3), uint8(128))
	f.Add(uint8(4), uint8(3), uint8(0), uint8(2), uint8(3), uint64(4), uint8(255))
	f.Fuzz(func(t *testing.T, n, tf, std, inputs, outputs uint8, seed uint64, density uint8) {
		p, ok := fuzzProblem(n, tf, std, inputs, outputs, seed, density)
		if !ok {
			t.Skip()
		}
		want, got := refCheckCC(p), p.CheckCC()
		if got.Holds != want.Holds {
			t.Fatalf("%s n=%d t=%d: CC %v, reference %v", p.Name, p.N, p.T, got.Holds, want.Holds)
		}
		if !reflect.DeepEqual(got.Gamma, want.Gamma) {
			t.Fatalf("%s n=%d t=%d: Γ %v, reference %v", p.Name, p.N, p.T, got.Gamma, want.Gamma)
		}
		if g, w := witnessString(got.Witness), witnessString(want.Witness); g != w {
			t.Fatalf("%s n=%d t=%d: witness %s, reference %s", p.Name, p.N, p.T, g, w)
		}
		wantV, wantTrivial := refIsTrivial(p)
		if v, trivial := p.IsTrivial(); v != wantV || trivial != wantTrivial {
			t.Fatalf("%s n=%d t=%d: IsTrivial (%q, %v), reference (%q, %v)", p.Name, p.N, p.T, v, trivial, wantV, wantTrivial)
		}
		s, cc := p.SolveCC()
		if s.Trivial != wantTrivial || (s.Trivial && s.TrivialValue != wantV) {
			t.Fatalf("%s n=%d t=%d: SolveCC trivial (%q, %v), reference (%q, %v)", p.Name, p.N, p.T, s.TrivialValue, s.Trivial, wantV, wantTrivial)
		}
		if !s.Trivial && (s.CC != want.Holds || witnessString(s.CCWitness) != witnessString(want.Witness) || !reflect.DeepEqual(cc.Gamma, want.Gamma)) {
			t.Fatalf("%s n=%d t=%d: SolveCC disagrees with the reference checker", p.Name, p.N, p.T)
		}
	})
}

// TestInteractiveMatchesReference asks Interactive(4, 1)'s predicate and
// the decoding one it replaced (reference_test.go) about every (c, v) of
// the problem and about values off its Outputs: an entry outside V_I
// ("⊥", "2") at each slot, other spacing, the wrong length, null,
// non-string entries and garbage. Configurations of another n are asked
// too.
func TestInteractiveMatchesReference(t *testing.T) {
	const n = 4
	p := validity.Interactive(n, 1)
	ref := refInteractive(n)
	values := append([]msg.Value{}, p.Outputs...)
	for _, v := range p.Outputs {
		vec, err := msg.DecodeVector(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vec {
			for _, foreign := range []msg.Value{"⊥", "2"} {
				odd := append([]msg.Value{}, vec...)
				odd[i] = foreign
				values = append(values, msg.EncodeVector(odd))
			}
		}
		values = append(values,
			msg.Value(strings.ReplaceAll(string(v), ",", " , ")),
			msg.EncodeVector(vec[:n-1]),
			msg.EncodeVector(append(vec, msg.Zero)))
	}
	values = append(values, "null", "[]", "", "garbage", `["0","1","0"`, `[0,1,0,1]`, `["0",null,"1","0"]`, `{"0":"1"}`)
	configs := append(p.Configs(), validity.Weak(n-1, 1).Configs()...)
	configs = append(configs, validity.Weak(n+1, 1).Configs()...)
	admitted := 0
	for _, c := range configs {
		for _, v := range values {
			got, want := p.Admissible(c, v), ref(c, v)
			if got != want {
				t.Fatalf("Interactive(%d,1) admits %s under %v: %v, reference %v", n, v, c, got, want)
			}
			if got {
				admitted++
			}
		}
	}
	t.Logf("%d configurations × %d values, %d admitted", len(configs), len(values), admitted)
}
