package catalog_test

import (
	"errors"
	"strings"
	"testing"

	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // register every protocol
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// expectedIDs is the registry tripwire: adding a protocol package without
// registering it (or removing a registration) fails here. Keep it in sync
// with the register.go files — that is the point.
var expectedIDs = []string{
	"derived-strong",
	"derived-weak",
	"dolev-strong",
	"eig",
	"external",
	"floodset",
	"floodset-early",
	"gradecast",
	"ic",
	"phase-king",
	"weak-eig",
	"weak-ic",
	"weak-phase-king",
}

func TestRegistryCoversTheLibrary(t *testing.T) {
	got := catalog.IDs()
	if strings.Join(got, " ") != strings.Join(expectedIDs, " ") {
		t.Fatalf("registered protocols %v, want %v — register new protocols (or update the tripwire)", got, expectedIDs)
	}
	for _, id := range expectedIDs {
		if _, ok := catalog.Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
}

// smallestSupported finds the least (n, t) with t >= 1 the spec admits —
// the size the completeness run uses.
func smallestSupported(s catalog.Spec) (int, int, bool) {
	for n := 2; n <= 9; n++ {
		for t := 1; t < n; t++ {
			if s.SupportedAt(n, t) {
				return n, t, true
			}
		}
	}
	return 0, 0, false
}

// faultFreeMessages are the closed forms of what correct processes send in
// a fault-free run at t >= 1, for the protocols on the
// interactive-consistency substrates and for phase-king: an EIG level per
// round, all to all; n bundled Dolev-Strong instances, a round of
// proposals and a round of relays; one Dolev-Strong instance, the sender's
// broadcast and everyone else's relay; t+1 phases of one all-to-all
// exchange and one king broadcast.
var faultFreeMessages = map[string]func(n, t int) int{
	"eig":          func(n, t int) int { return (t + 1) * n * (n - 1) },
	"weak-eig":     func(n, t int) int { return (t + 1) * n * (n - 1) },
	"ic":           func(n, t int) int { return 2 * n * (n - 1) },
	"weak-ic":      func(n, t int) int { return 2 * n * (n - 1) },
	"dolev-strong": func(n, t int) int { return (n - 1) + (n-1)*(n-1) },

	"phase-king":      func(n, t int) int { return (t + 1) * (n*n - 1) },
	"weak-phase-king": func(n, t int) int { return (t + 1) * (n*n - 1) },
}

// TestEveryProtocolRunsFaultFree is the registry completeness gate: every
// registered spec must build at a small supported (n, t), run fault-free
// to its round bound, terminate, agree (under its own Agreement relation
// when it has one), satisfy its validity property, and decode its
// decision when it carries a decoder. A broken or mis-registered spec
// fails CI here.
func TestEveryProtocolRunsFaultFree(t *testing.T) {
	for _, spec := range catalog.Protocols() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			n, tf, ok := smallestSupported(spec)
			if !ok {
				t.Fatalf("no supported (n, t) with n <= 9 — condition %q", spec.Condition)
			}
			params := catalog.DefaultParams(n, tf)
			factory, rounds, err := spec.Build(params)
			if err != nil {
				t.Fatalf("Build at supported n=%d t=%d: %v", n, tf, err)
			}
			if rounds <= 0 {
				t.Fatalf("round bound %d is not positive", rounds)
			}
			proposals := make([]msg.Value, n)
			for i := range proposals {
				proposals[i] = msg.Bit(i % 2)
			}
			cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: rounds + 1}
			e, err := sim.Run(cfg, factory, sim.NoFaults{})
			if err != nil {
				t.Fatal(err)
			}
			// Termination at the round bound, for every process.
			decisions := make([]msg.Value, n)
			for i := 0; i < n; i++ {
				d, ok := e.Decision(proc.ID(i))
				if !ok {
					t.Fatalf("process %d undecided after %d rounds", i, e.Rounds)
				}
				decisions[i] = d
			}
			// Agreement — strict, or the spec's own compatibility relation.
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if spec.Agreement != nil {
						if err := spec.Agreement(decisions[i], decisions[j]); err != nil {
							t.Fatalf("decisions %q / %q incompatible: %v", decisions[i], decisions[j], err)
						}
					} else if decisions[i] != decisions[j] {
						t.Fatalf("processes %d and %d decided %q and %q", i, j, decisions[i], decisions[j])
					}
				}
			}
			// The spec's validity property on the fault-free outcome.
			if check := spec.ValidityFor(params); check != nil {
				for i := range decisions {
					if err := check(proposals, proc.Universe(n), decisions[i]); err != nil {
						t.Fatalf("validity: %v", err)
					}
					if spec.Agreement == nil {
						break // common decision; one check suffices
					}
				}
			}
			// The decoder must parse real decisions.
			if spec.Decode != nil {
				if _, err := spec.Decode(decisions[0]); err != nil {
					t.Fatalf("Decode(%q): %v", decisions[0], err)
				}
			}
			// The message count, where it has a closed form.
			if want, ok := faultFreeMessages[spec.ID]; ok {
				if got := e.CorrectMessages(); got != want(n, tf) {
					t.Errorf("correct processes sent %d messages at n=%d t=%d, closed form %d", got, n, tf, want(n, tf))
				}
			}
		})
	}
}

// unsupportedSize finds a structurally valid (n, t) the spec's resilience
// predicate rejects, if any exists in the small grid.
func unsupportedSize(s catalog.Spec) (int, int, bool) {
	for n := 2; n <= 9; n++ {
		for t := 1; t < n; t++ {
			if !s.SupportedAt(n, t) {
				return n, t, true
			}
		}
	}
	return 0, 0, false
}

// TestBuildValidatesParams is the central-validation table: for every
// registered protocol, structurally invalid and unsupported parameter
// combinations must yield typed errors — never a silently misbehaving
// protocol.
func TestBuildValidatesParams(t *testing.T) {
	for _, spec := range catalog.Protocols() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			n, tf, ok := smallestSupported(spec)
			if !ok {
				t.Fatalf("no supported size for %s", spec.ID)
			}
			good := catalog.DefaultParams(n, tf)

			bad := func(name string, p catalog.Params, sentinel error) {
				t.Helper()
				_, _, err := spec.Build(p)
				if err == nil {
					t.Errorf("%s: Build accepted invalid params %+v", name, p)
					return
				}
				if !errors.Is(err, sentinel) {
					t.Errorf("%s: error %v does not wrap %v", name, err, sentinel)
				}
				var pe *catalog.ParamsError
				if !errors.As(err, &pe) {
					t.Errorf("%s: error %v is not a *ParamsError", name, err)
				} else if pe.Protocol != spec.ID {
					t.Errorf("%s: error names protocol %q, want %q", name, pe.Protocol, spec.ID)
				}
			}

			p := good
			p.T = p.N // t >= n
			bad("t >= n", p, catalog.ErrBadParams)

			p = good
			p.N = 1
			p.T = 0
			bad("n < 2", p, catalog.ErrBadParams)

			p = good
			p.T = -1
			bad("t < 0", p, catalog.ErrBadParams)

			if un, ut, ok := unsupportedSize(spec); ok {
				q := catalog.DefaultParams(un, ut)
				_, _, err := spec.Build(q)
				if !errors.Is(err, catalog.ErrUnsupported) {
					t.Errorf("unsupported n=%d t=%d: error %v does not wrap ErrUnsupported", un, ut, err)
				}
				if err == nil || !strings.Contains(err.Error(), spec.Condition) {
					t.Errorf("unsupported-size error %v does not name the condition %q", err, spec.Condition)
				}
			}

			if spec.NeedsScheme {
				p = good
				p.Scheme = nil
				bad("missing scheme", p, catalog.ErrBadParams)
			}
			if spec.NeedsSender {
				p = good
				p.Sender = proc.ID(p.N)
				bad("sender outside Π", p, catalog.ErrBadParams)
			}
			if spec.NeedsDefault {
				p = good
				p.Default = ""
				bad("missing default", p, catalog.ErrBadParams)
			}

			// And the good params must build.
			if _, _, err := spec.Build(good); err != nil {
				t.Fatalf("Build(%+v): %v", good, err)
			}
		})
	}
}

// TestRebuilderRefusesUnsupportedSizes pins the shrinker contract: the
// rebuild hook returns an error (rather than a protocol) outside the
// resilience condition.
func TestRebuilderRefusesUnsupportedSizes(t *testing.T) {
	spec, ok := catalog.Lookup("phase-king")
	if !ok {
		t.Fatal("phase-king not registered")
	}
	rebuild := spec.Rebuilder(catalog.DefaultParams(5, 1))
	if _, _, err := rebuild(4, 1); !errors.Is(err, catalog.ErrUnsupported) {
		t.Fatalf("rebuild at n=4 t=1: err %v, want ErrUnsupported", err)
	}
	if _, _, err := rebuild(5, 1); err != nil {
		t.Fatalf("rebuild at supported size: %v", err)
	}
}

// TestGetNamesTheAvailableIDs pins the unknown-protocol diagnostics.
func TestGetNamesTheAvailableIDs(t *testing.T) {
	_, err := catalog.Get("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "unknown protocol") || !strings.Contains(err.Error(), "floodset") {
		t.Fatalf("error %q should name the available IDs", err)
	}
	if _, err := catalog.Get("floodset"); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRejectsProgrammerErrors pins the init-time panics. Only
// specs that fail before insertion are exercised, so the global registry
// stays untouched.
func TestRegisterRejectsProgrammerErrors(t *testing.T) {
	mustPanic := func(name string, s catalog.Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		catalog.Register(s)
	}
	valid := catalog.Spec{
		ID:        "floodset", // duplicate of a real registration
		Title:     "dup",
		Model:     catalog.CrashOnly,
		Condition: "t < n",
		Rounds:    func(n, t int) int { return t + 1 },
		New:       func(catalog.Params) (sim.Factory, error) { return nil, nil },
	}
	mustPanic("duplicate ID", valid)
	s := valid
	s.ID = ""
	mustPanic("empty ID", s)
	s = valid
	s.Rounds = nil
	mustPanic("missing Rounds", s)
	s = valid
	s.New = nil
	mustPanic("missing New", s)
	s = valid
	s.Condition = ""
	mustPanic("missing condition", s)
	s = valid
	s.Model = "quantum"
	mustPanic("unknown model", s)
}
