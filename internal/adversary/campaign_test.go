package adversary

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"expensive/internal/protocols/floodset"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// floodsetCampaign is the canonical hunt: the targeted withholding attack
// against the crash-model FloodSet, which must split (experiment E10).
func floodsetCampaign(parallelism int) *Campaign {
	n, tf := 8, 2
	return &Campaign{
		Target: Target{
			Protocol: "floodset",
			Factory:  floodset.New(floodset.Config{N: n, T: tf}),
			Rounds:   floodset.RoundBound(tf),
			N:        n,
			T:        tf,
			Validity: validity.AdmissibleCheck(validity.Weak(n, tf)),
			New: func(n, t int) (sim.Factory, int, error) {
				return floodset.New(floodset.Config{N: n, T: t}), floodset.RoundBound(t), nil
			},
		},
		Strategy:    TargetedWithhold(),
		Seeds:       SeedRange{From: 0, To: 32},
		Shrink:      true,
		Parallelism: parallelism,
	}
}

// TestCampaignFindsAndShrinksFloodSetSplit is the subsystem's acceptance
// path: the hunt finds the E10 agreement split, shrinks it to a 1-minimal
// fault plan, and the certificate survives independent re-checking.
func TestCampaignFindsAndShrinksFloodSetSplit(t *testing.T) {
	c := floodsetCampaign(1)
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Broken() {
		t.Fatal("campaign found no violation; the E10 attack should split FloodSet")
	}
	var agreement *Violation
	for _, v := range rep.Violations {
		if v.Kind == "agreement" {
			agreement = v
			break
		}
	}
	if agreement == nil {
		t.Fatalf("no agreement violation among %d violations", len(rep.Violations))
	}
	sh := agreement.Shrunk
	if sh == nil {
		t.Fatal("violation was not shrunk")
	}
	if sh.OmitAfter > sh.OmitBefore || sh.FaultyAfter > sh.FaultyBefore {
		t.Fatalf("shrink grew the plan: %v", sh)
	}
	// How far n shrinks depends on where the seed placed attacker and
	// victim (high-ID participants block the drop); TestShrinkReducesN pins
	// the full reduction deterministically.
	if sh.N > sh.NBefore {
		t.Errorf("shrink grew n: %d -> %d", sh.NBefore, sh.N)
	}
	if sh.FaultyAfter != 1 {
		t.Errorf("minimal FloodSet split needs exactly 1 faulty process, got %d", sh.FaultyAfter)
	}

	opts := c.RecheckOptions()
	for _, v := range rep.Violations {
		if err := Recheck(v, opts); err != nil {
			t.Fatalf("seed %d: recheck: %v", v.Seed, err)
		}
	}

	// 1-minimality: removing any single remaining element of the shrunk
	// plan must make the violation disappear.
	factory, rounds, err := c.New(sh.N, c.T)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{N: sh.N, T: c.T, Rounds: rounds, Horizon: rounds + 2, Factory: factory}
	stillViolates := func(p ExplicitPlan) bool {
		e, err := sim.Run(sim.Config{N: sh.N, T: c.T, Proposals: sh.Proposals, MaxRounds: env.Horizon},
			factory, p.Plan(env))
		if err != nil {
			return false
		}
		return CheckExecution(e, sh.Proposals, c.Validity, c.Agreement) != nil
	}
	if !stillViolates(sh.Plan) {
		t.Fatal("shrunk plan does not violate on replay")
	}
	for _, id := range sh.Plan.Faulty {
		if stillViolates(sh.Plan.withoutProc(id)) {
			t.Errorf("shrunk plan still violates without faulty %s — not minimal", id)
		}
	}
	for i := range sh.Plan.SendOmit {
		if stillViolates(sh.Plan.withoutSendOmit(i)) {
			t.Errorf("shrunk plan still violates without send-omit %v — not minimal", sh.Plan.SendOmit[i])
		}
	}
	for i := range sh.Plan.ReceiveOmit {
		if stillViolates(sh.Plan.withoutReceiveOmit(i)) {
			t.Errorf("shrunk plan still violates without receive-omit %v — not minimal", sh.Plan.ReceiveOmit[i])
		}
	}
}

// TestCampaignReportDeterminism is the parallelism contract: the JSON
// encoding of a campaign report — violations, shrunken plans, histograms
// — is byte-identical at parallelism 1 and NumCPU.
func TestCampaignReportDeterminism(t *testing.T) {
	encode := func(parallelism int) []byte {
		rep, err := floodsetCampaign(parallelism).Run()
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := encode(1)
	parallel := encode(0)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("campaign reports differ between parallelism levels:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if !bytes.Contains(serial, []byte(`"kind": "agreement"`)) {
		t.Fatal("deterministic report does not contain the expected agreement violation")
	}
}

// TestCampaignSoundProtocols hunts protocols inside their resilience
// bounds with every Byzantine strategy: no violations may appear.
func TestCampaignSoundProtocols(t *testing.T) {
	n, tf := 5, 1
	factory := phaseking.New(phaseking.Config{N: n, T: tf})
	rounds := phaseking.RoundBound(tf)
	for _, s := range []Strategy{Chaos(), Equivocate(), TwoFaced(), RandomOmission(40), SilentCrash()} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c := &Campaign{
				Target: Target{
					Protocol: "phase-king",
					Factory:  factory,
					Rounds:   rounds,
					N:        n,
					T:        tf,
					Validity: validity.AdmissibleCheck(validity.Strong(n, tf)),
				},
				Strategy: s,
				Seeds:    SeedRange{From: 0, To: 20},
			}
			rep, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Broken() {
				t.Fatalf("sound phase-king broken: %v", rep.Violations[0])
			}
			if rep.Probes != 20 {
				t.Fatalf("expected 20 probes, got %d", rep.Probes)
			}
		})
	}
}

// The problem-derived hunt lifecycle (formerly TestForProblem here) lives
// in internal/solve/campaign_test.go: HuntCampaign moved to package solve
// so the adversary layer stays below the protocol catalog.

// TestCampaignMaxViolations caps the recorded violations while counting
// all of them.
func TestCampaignMaxViolations(t *testing.T) {
	c := floodsetCampaign(1)
	c.Shrink = false
	c.MaxViolations = 1
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("recorded %d violations, want 1", len(rep.Violations))
	}
	if rep.ViolationCount <= 1 {
		t.Fatalf("expected more than one violating seed in 0:32, got %d", rep.ViolationCount)
	}
}

// TestCampaignValidation rejects malformed campaigns.
func TestCampaignValidation(t *testing.T) {
	base := floodsetCampaign(1)
	cases := []func(c *Campaign){
		func(c *Campaign) { c.Factory = nil },
		func(c *Campaign) { c.Strategy = Strategy{} },
		func(c *Campaign) { c.Rounds = 0 },
		func(c *Campaign) { c.T = 0 },
		func(c *Campaign) { c.Seeds = SeedRange{From: 5, To: 5} },
		// The overflow regression: this width wraps int64 negative, which
		// used to pass the emptiness check and panic runner.Map's make.
		func(c *Campaign) { c.Seeds = SeedRange{From: math.MinInt64, To: math.MaxInt64} },
		func(c *Campaign) { c.Seeds = SeedRange{From: 0, To: math.MaxInt64} },
	}
	for i, breakIt := range cases {
		c := *base
		breakIt(&c)
		if _, err := c.Run(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestSeedRangeCount pins Count and Err across the overflow regression
// cases: reversed, empty, and near-MaxInt64 ranges must report a
// non-negative count and fail validation instead of wrapping int and
// panicking the worker pool.
func TestSeedRangeCount(t *testing.T) {
	cases := []struct {
		name  string
		r     SeedRange
		count int
		valid bool
	}{
		{"small", SeedRange{From: 0, To: 64}, 64, true},
		{"negative from", SeedRange{From: -32, To: 32}, 64, true},
		{"empty", SeedRange{From: 5, To: 5}, 0, false},
		{"reversed", SeedRange{From: 10, To: -10}, 0, false},
		{"at cap", SeedRange{From: 0, To: MaxSeeds}, MaxSeeds, true},
		{"over cap", SeedRange{From: 0, To: MaxSeeds + 1}, MaxSeeds + 1, false},
		{"near MaxInt64", SeedRange{From: 0, To: math.MaxInt64}, MaxSeeds + 1, false},
		{"full int64 width", SeedRange{From: math.MinInt64, To: math.MaxInt64}, MaxSeeds + 1, false},
		{"reversed extremes", SeedRange{From: math.MaxInt64, To: math.MinInt64}, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.Count(); got != tc.count {
				t.Errorf("Count() = %d, want %d", got, tc.count)
			}
			if got := tc.r.Count(); got < 0 {
				t.Errorf("Count() = %d is negative — the overflow the fix removes", got)
			}
			if err := tc.r.Err(); (err == nil) != tc.valid {
				t.Errorf("Err() = %v, want valid=%v", err, tc.valid)
			}
		})
	}
}

// TestHistogramDeterminism pins the histogram shape.
func TestHistogramDeterminism(t *testing.T) {
	h := NewHistogram([]int{3, 1, 3, 2, 3})
	want := Histogram{Min: 1, Max: 3, Sum: 12, Buckets: []Bucket{{1, 1}, {2, 1}, {3, 3}}}
	if fmt.Sprint(h) != fmt.Sprint(want) {
		t.Fatalf("histogram %v, want %v", h, want)
	}
}

func TestSeedRangeSplit(t *testing.T) {
	cases := []struct {
		name string
		r    SeedRange
		k    int
		want []SeedRange
	}{
		{"even", SeedRange{0, 8}, 4, []SeedRange{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{"uneven", SeedRange{0, 10}, 4, []SeedRange{{0, 3}, {3, 6}, {6, 8}, {8, 10}}},
		{"offset uneven", SeedRange{5, 12}, 3, []SeedRange{{5, 8}, {8, 10}, {10, 12}}},
		{"k exceeds width", SeedRange{0, 3}, 8, []SeedRange{{0, 1}, {1, 2}, {2, 3}}},
		{"k one", SeedRange{3, 9}, 1, []SeedRange{{3, 9}}},
		{"k nonpositive", SeedRange{0, 4}, 0, []SeedRange{{0, 4}}},
		{"single seed", SeedRange{7, 8}, 4, []SeedRange{{7, 8}}},
		{"empty", SeedRange{5, 5}, 3, nil},
		{"inverted", SeedRange{5, 2}, 3, nil},
		{"beyond MaxSeeds", SeedRange{0, MaxSeeds + 1}, 2, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.r.Split(tc.k)
			if len(got) != len(tc.want) {
				t.Fatalf("Split(%d) = %v, want %v", tc.k, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Split(%d)[%d] = %v, want %v", tc.k, i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestSeedRangeSplitCovers fuzzes the partition invariants: contiguous,
// ascending, exactly covering, widths differing by at most one.
func TestSeedRangeSplitCovers(t *testing.T) {
	for _, r := range []SeedRange{{0, 64}, {100, 1000}, {-50, 13}, {0, MaxSeeds}} {
		for _, k := range []int{1, 2, 3, 7, 16, 100} {
			parts := r.Split(k)
			if len(parts) == 0 {
				t.Fatalf("Split(%v, %d): empty partition of a valid range", r, k)
			}
			var total int64
			lo, hi := parts[0].Count(), parts[0].Count()
			at := r.From
			for _, p := range parts {
				if p.From != at || p.To <= p.From {
					t.Fatalf("Split(%v, %d): discontiguous part %v at %d", r, k, p, at)
				}
				at = p.To
				c := p.Count()
				total += int64(c)
				lo, hi = min(lo, c), max(hi, c)
			}
			if at != r.To || total != int64(r.Count()) {
				t.Fatalf("Split(%v, %d): covers [%d, %d), want [%d, %d)", r, k, r.From, at, r.From, r.To)
			}
			if hi-lo > 1 {
				t.Fatalf("Split(%v, %d): widths differ by %d", r, k, hi-lo)
			}
		}
	}
}

// TestHistogramMerge checks Merge against NewHistogram over concatenated
// value slices — the identity the distributed fold relies on.
func TestHistogramMerge(t *testing.T) {
	a := []int{1, 4, 4, 9}
	b := []int{0, 4, 7, 9, 9}
	got := NewHistogram(a).Merge(NewHistogram(b))
	want := NewHistogram(append(append([]int{}, a...), b...))
	jg, _ := json.Marshal(got)
	jw, _ := json.Marshal(want)
	if string(jg) != string(jw) {
		t.Fatalf("Merge = %s, want %s", jg, jw)
	}
	if m := NewHistogram(nil).Merge(NewHistogram(a)); m.Sum != 18 {
		t.Fatalf("empty.Merge = %+v", m)
	}
	if m := NewHistogram(a).Merge(NewHistogram(nil)); m.Sum != 18 {
		t.Fatalf("Merge(empty) = %+v", m)
	}
}

// TestMergeMatchesRun holds Merge to the serial reference: the
// Seeds.Split(k) sub-campaign reports fold to the bytes Run produces over
// the whole range, with and without a violation cap, and a nil entry
// drops exactly that piece's probes. The dist tests hold the same
// identity, through TCP.
func TestMergeMatchesRun(t *testing.T) {
	for _, maxViolations := range []int{0, 3} {
		c := floodsetCampaign(1)
		c.Seeds, c.Shrink, c.MaxViolations = SeedRange{From: 0, To: 96}, false, maxViolations
		whole, err := c.Run()
		if err != nil || !whole.Broken() {
			t.Fatalf("the reference hunt must find the split: %v", err)
		}
		want, _ := json.Marshal(whole)
		for _, k := range []int{1, 2, 5, 16} {
			var subs []*CampaignReport
			for _, part := range c.Seeds.Split(k) {
				sub := *c
				sub.Seeds = part
				rep, err := sub.Run()
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, rep)
			}
			if got, _ := json.Marshal(c.Merge(subs)); !bytes.Equal(got, want) {
				t.Errorf("cap %d, %d pieces: Merge = %s\nRun = %s", maxViolations, k, got, want)
			}
			if k < 2 {
				continue
			}
			dropped := subs[1]
			subs[1] = nil
			got := c.Merge(subs)
			if got.Probes != whole.Probes-dropped.Probes || got.ViolationCount != whole.ViolationCount-dropped.ViolationCount {
				t.Errorf("cap %d, %d pieces, piece 1 missing: %d probes and %d violations, want %d and %d", maxViolations, k,
					got.Probes, got.ViolationCount, whole.Probes-dropped.Probes, whole.ViolationCount-dropped.ViolationCount)
			}
		}
	}
}
