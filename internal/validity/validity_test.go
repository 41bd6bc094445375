package validity_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/validity"
)

func mustConfig(t *testing.T, n int, assign map[proc.ID]msg.Value) validity.InputConfig {
	t.Helper()
	c, err := validity.NewConfig(n, assign)
	if err != nil {
		t.Fatalf("NewConfig: %v", err)
	}
	return c
}

func TestContainmentExampleFromPaper(t *testing.T) {
	// §4.2's example with n = 3: ⟨(p0,v0),(p1,v1),(p2,v2)⟩ contains
	// ⟨(p0,v0),(p2,v2)⟩ but not ⟨(p0,v0),(p2,v2')⟩.
	full := mustConfig(t, 3, map[proc.ID]msg.Value{0: "v0", 1: "v1", 2: "v2"})
	sub := mustConfig(t, 3, map[proc.ID]msg.Value{0: "v0", 2: "v2"})
	wrong := mustConfig(t, 3, map[proc.ID]msg.Value{0: "v0", 2: "v2'"})
	if !full.Contains(sub) {
		t.Error("containment rejected")
	}
	if full.Contains(wrong) {
		t.Error("containment accepted despite proposal mismatch")
	}
	if !full.Contains(full) {
		t.Error("containment not reflexive")
	}
	if sub.Contains(full) {
		t.Error("containment not antisymmetric on strict subsets")
	}
}

func TestContainmentIsPartialOrder(t *testing.T) {
	// Reflexivity, antisymmetry and transitivity over random configs.
	gen := func(seed int64) validity.InputConfig {
		r := rand.New(rand.NewSource(seed))
		assign := make(map[proc.ID]msg.Value)
		for i := 0; i < 5; i++ {
			if r.Intn(2) == 0 {
				assign[proc.ID(i)] = msg.Bit(r.Intn(2))
			}
		}
		c, _ := validity.NewConfig(5, assign)
		return c
	}
	prop := func(s1, s2, s3 int64) bool {
		a, b, c := gen(s1), gen(s2), gen(s3)
		if !a.Contains(a) {
			return false
		}
		if a.Contains(b) && b.Contains(a) && a.Key() != b.Key() {
			return false
		}
		if a.Contains(b) && b.Contains(c) && !a.Contains(c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRestrictAndContainmentSet(t *testing.T) {
	full := validity.FullConfig([]msg.Value{"0", "1", "0"})
	if _, err := full.Restrict(proc.NewSet(0, 7)); err == nil {
		t.Error("restrict to non-subset should fail")
	}
	cnt := full.ContainmentSet(2)
	// Subsets of size 2 and 3: C(3,2) + 1 = 4.
	if len(cnt) != 4 {
		t.Errorf("|Cnt| = %d, want 4", len(cnt))
	}
	for _, sub := range cnt {
		if !full.Contains(sub) {
			t.Errorf("enumerated non-contained config %v", sub)
		}
	}
}

func TestVectorAndUnanimity(t *testing.T) {
	full := validity.FullConfig([]msg.Value{"1", "1", "1"})
	if v, ok := full.Unanimous(); !ok || v != "1" {
		t.Errorf("Unanimous = %q/%v", v, ok)
	}
	vec, err := full.Vector()
	if err != nil || len(vec) != 3 {
		t.Errorf("Vector: %v %v", vec, err)
	}
	partial := mustConfig(t, 3, map[proc.ID]msg.Value{0: "1"})
	if _, err := partial.Vector(); err == nil {
		t.Error("Vector on partial config should fail")
	}
	mixed := validity.FullConfig([]msg.Value{"1", "0", "1"})
	if _, ok := mixed.Unanimous(); ok {
		t.Error("mixed config reported unanimous")
	}
}

func TestTriviality(t *testing.T) {
	if _, trivial := validity.Weak(4, 1).IsTrivial(); trivial {
		t.Error("weak consensus reported trivial")
	}
	if _, trivial := validity.Strong(4, 1).IsTrivial(); trivial {
		t.Error("strong consensus reported trivial")
	}
	v, trivial := validity.Constant(4, 1, msg.One).IsTrivial()
	if !trivial || v != msg.One {
		t.Errorf("constant problem: trivial=%v v=%q", trivial, v)
	}
}

func TestCCStandardProblems(t *testing.T) {
	cases := []struct {
		name string
		p    validity.Problem
		want bool
	}{
		{"weak n=4 t=3", validity.Weak(4, 3), true},
		{"weak n=4 t=1", validity.Weak(4, 1), true},
		{"strong n=4 t=1", validity.Strong(4, 1), true},
		{"strong n=4 t=2 (n=2t)", validity.Strong(4, 2), false},
		{"strong n=5 t=2 (n=2t+1)", validity.Strong(5, 2), true},
		{"strong n=6 t=3 (n=2t)", validity.Strong(6, 3), false},
		{"broadcast n=4 t=3", validity.Broadcast(4, 3, 0), true},
		{"correct-source n=4 t=2", validity.CorrectSource(4, 2), false},
		{"correct-source n=5 t=2", validity.CorrectSource(5, 2), true},
		{"interactive n=4 t=2", validity.Interactive(4, 2), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			res := tc.p.CheckCC()
			if res.Holds != tc.want {
				t.Fatalf("CC = %v, want %v", res.Holds, tc.want)
			}
			if res.Holds {
				// Γ must be defined on every configuration and admissible
				// under the whole containment set.
				for _, c := range tc.p.Configs() {
					g, ok := res.Gamma[c.Key()]
					if !ok {
						t.Fatalf("Γ undefined on %v", c)
					}
					for _, sub := range c.ContainmentSet(tc.p.N - tc.p.T) {
						if !tc.p.Admissible(sub, g) {
							t.Fatalf("Γ(%v)=%q not admissible under contained %v", c, g, sub)
						}
					}
				}
			} else if res.Witness == nil {
				t.Error("CC fails without witness")
			}
		})
	}
}

func TestTheorem5Witness(t *testing.T) {
	// Strong consensus at n = 2t: the witness must exhibit the exact shape
	// of the Theorem 5 proof — a configuration containing two
	// sub-configurations with disjoint admissible sets.
	p := validity.Strong(4, 2)
	res := p.CheckCC()
	if res.Holds {
		t.Fatal("CC should fail at n = 2t")
	}
	w := res.Witness
	if w == nil || !w.HasPair {
		t.Fatalf("witness missing or incomplete: %+v", w)
	}
	if !w.C.Contains(w.C1) || !w.C.Contains(w.C2) {
		t.Error("witness pair not contained in c")
	}
	vals1 := make(map[msg.Value]bool)
	for _, v := range w.Val1 {
		vals1[v] = true
	}
	for _, v := range w.Val2 {
		if vals1[v] {
			t.Errorf("witness admissible sets intersect at %q", v)
		}
	}
	if w.String() == "" {
		t.Error("witness renders empty")
	}
}

func TestSolvabilityVerdicts(t *testing.T) {
	cases := []struct {
		p       validity.Problem
		auth    bool
		unauth  bool
		trivial bool
	}{
		{validity.Weak(4, 1), true, true, false},     // n > 3t
		{validity.Weak(4, 2), true, false, false},    // n <= 3t
		{validity.Weak(4, 3), true, false, false},    // n <= 3t
		{validity.Strong(4, 2), false, false, false}, // CC fails
		{validity.Strong(5, 2), true, false, false},  // n=2t+1 <= 3t
		{validity.Strong(7, 2), true, true, false},   // n > 3t
		{validity.Broadcast(4, 3, 0), true, false, false},
		{validity.Constant(4, 3, msg.One), true, true, true},
	}
	for _, tc := range cases {
		s := tc.p.Solve()
		if s.Authenticated != tc.auth || s.Unauthenticated != tc.unauth || s.Trivial != tc.trivial {
			t.Errorf("%s n=%d t=%d: got auth=%v unauth=%v trivial=%v, want %v/%v/%v",
				tc.p.Name, tc.p.N, tc.p.T, s.Authenticated, s.Unauthenticated, s.Trivial,
				tc.auth, tc.unauth, tc.trivial)
		}
	}
}

func TestGammaFuncClampsForeignEntries(t *testing.T) {
	p := validity.Weak(4, 1)
	res := p.CheckCC()
	gamma, err := p.GammaFunc(res)
	if err != nil {
		t.Fatalf("GammaFunc: %v", err)
	}
	// A broadcast default "⊥" in a faulty slot is clamped; unanimity of the
	// remaining entries is spoiled, so Γ_weak picks a value admissible for
	// the actual (smaller) input configuration — anything binary works.
	out := gamma([]msg.Value{"1", "1", "⊥", "1"})
	if !msg.IsBit(out) {
		t.Errorf("Γ returned non-domain value %q", out)
	}
	// Fully unanimous in-domain vector must return the unanimous value.
	if out := gamma([]msg.Value{"1", "1", "1", "1"}); out != "1" {
		t.Errorf("Γ(1,1,1,1) = %q", out)
	}
	if _, err := p.GammaFunc(validity.CCResult{}); err == nil {
		t.Error("GammaFunc without CC should fail")
	}
}

func TestProblemValidate(t *testing.T) {
	bad := validity.Weak(4, 1)
	bad.N = 12
	if err := bad.Validate(); err == nil {
		t.Error("n too large for exact enumeration should be rejected")
	}
	bad2 := validity.Weak(4, 1)
	bad2.Admissible = nil
	if err := bad2.Validate(); err == nil {
		t.Error("nil predicate should be rejected")
	}
}

func TestConfigsEnumeration(t *testing.T) {
	p := validity.Weak(3, 1)
	configs := p.Configs()
	// Sizes 2 and 3 over binary inputs: C(3,2)*4 + 1*8 = 20.
	if len(configs) != 20 {
		t.Errorf("|I| = %d, want 20", len(configs))
	}
	full := p.FullConfigs()
	if len(full) != 8 {
		t.Errorf("|I_n| = %d, want 8", len(full))
	}
	// Key is "id=value;" over π(c) in increasing order (Γ's map keys).
	if got, want := configs[0].Key(), "0=0;1=0;"; got != want {
		t.Errorf("first config key %q, want %q", got, want)
	}
	if got, want := mustConfig(t, 12, map[proc.ID]msg.Value{11: "⊥", 0: "1", 3: ""}).Key(), "0=1;3=;11=⊥;"; got != want {
		t.Errorf("key %q, want %q", got, want)
	}
	seen := make(map[string]bool)
	for _, c := range configs {
		if seen[c.Key()] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c.Key()] = true
	}
}
