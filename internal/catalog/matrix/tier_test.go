package matrix_test

import (
	"encoding/json"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // register every protocol
	"expensive/internal/catalog/matrix"
)

// supportedSize finds a grid size the spec's resilience predicate accepts.
func supportedSize(s catalog.Spec) (int, int, bool) {
	for _, size := range []matrix.Size{{N: 4, T: 1}, {N: 5, T: 1}, {N: 8, T: 2}, {N: 9, T: 2}} {
		if s.SupportedAt(size.N, size.T) {
			return size.N, size.T, true
		}
	}
	return 0, 0, false
}

// reference is what a campaign's report must be by the evidence
// standard: every seed held to Target.Evidence — the full Appendix A.1.6
// trace, certified — and folded with Ledger.Add in seed order. Proposals
// resolve as in Campaign.Run: the campaign's override, when set, stands
// in for the strategy's own generator. Shrinking is not modelled.
func reference(t *testing.T, c *adversary.Campaign) *adversary.CampaignReport {
	t.Helper()
	strat := c.Strategy
	if c.Proposals != nil {
		strat.Proposals = c.Proposals
	}
	env := c.Env()
	rep := c.Merge(nil) // the report header, no probes folded
	for i := 0; i < c.Seeds.Count(); i++ {
		seed := c.Seeds.From + int64(i)
		tr, _, v, err := c.Evidence(env, c.Strategy.Build(seed, env), strat.ProposalsFor(seed, env))
		if err != nil {
			t.Fatalf("reference, seed %d: %v", seed, err)
		}
		if v != nil {
			v.Seed = seed
		}
		rep.Add(i+1, adversary.CostOf(tr.Execution), v, c.MaxViolations)
		rep.Probes++
	}
	return rep
}

// sameJSON fails the test unless got and want encode to the same bytes.
func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Fatalf("%s differs from the full-evidence reference:\ngot:       %s\nreference: %s", what, gj, wj)
	}
}

// TestCampaignTierEquivalence sweeps every registered protocol under a
// seeded strategy sample and asserts each lean CampaignReport is
// byte-identical to the reference that holds every seed to the full
// evidence: same decisions, round counts and message-complexity
// histograms, and — for the protocols the strategies break — violation
// replay reproducing the exact evidence (plan, witnesses, details).
func TestCampaignTierEquivalence(t *testing.T) {
	strategies := []adversary.Named{
		{ID: "targeted-withhold", Strategy: adversary.TargetedWithhold()},
		{ID: "random-omission", Strategy: adversary.RandomOmission(40)},
		{ID: "chaos", Strategy: adversary.Chaos()},
	}
	sawViolation := false
	for _, spec := range catalog.Protocols() {
		n, tf, ok := supportedSize(spec)
		if !ok {
			t.Errorf("%s: no supported size in the sample grid", spec.ID)
			continue
		}
		for _, strat := range strategies {
			t.Run(spec.ID+"/"+strat.ID, func(t *testing.T) {
				c, err := matrix.CampaignFor(spec, catalog.DefaultParams(n, tf), strat.Strategy,
					adversary.SeedRange{From: 0, To: 12})
				if err != nil {
					t.Fatalf("campaign: %v", err)
				}
				c.Parallelism = 1
				lean, err := c.Run()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				sameJSON(t, "campaign report", lean, reference(t, c))
				if lean.Broken() {
					sawViolation = true
					for _, v := range lean.Violations {
						if v.Plan == nil && len(v.Proposals) == 0 {
							t.Fatalf("violation at seed %d carries no evidence", v.Seed)
						}
					}
				}
			})
		}
	}
	if !sawViolation {
		t.Fatal("no strategy broke any protocol — the violation-replay path was never exercised")
	}
}

// TestMatrixTierEquivalence runs the canonical small matrix and asserts
// its grid is byte-identical to one assembled from reference campaigns,
// cell by cell in Grid.Cells order.
func TestMatrixTierEquivalence(t *testing.T) {
	m := smallMatrix(1)
	g, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Broken() {
		t.Fatal("expected the small matrix to find the FloodSet split")
	}
	var protocols, strategies []string
	var cells []matrix.Cell
	for _, strat := range m.Strategies {
		strategies = append(strategies, strat.ID)
	}
	for _, spec := range m.Protocols {
		protocols = append(protocols, spec.ID)
		for _, strat := range m.Strategies {
			for _, size := range m.Sizes {
				cell := matrix.Cell{Protocol: spec.ID, Strategy: strat.ID, N: size.N, T: size.T}
				if !spec.SupportedAt(size.N, size.T) {
					cell.Skipped, cell.Reason = true, "requires "+spec.Condition
					cells = append(cells, cell)
					continue
				}
				c, err := matrix.CampaignFor(spec, catalog.DefaultParams(size.N, size.T), strat.Strategy, m.Seeds)
				if err != nil {
					t.Fatal(err)
				}
				c.MaxViolations = 1 // the matrix default
				rep := reference(t, c)
				cell.Probes, cell.ViolationCount, cell.FirstViolationProbe = rep.Probes, rep.ViolationCount, rep.FirstViolationProbe
				cell.Violations, cell.Messages, cell.Rounds = rep.Violations, rep.Messages, rep.RoundsHist
				cells = append(cells, cell)
			}
		}
	}
	sameJSON(t, "grid", g, matrix.AssembleGrid(protocols, strategies, m.Sizes, m.Seeds, cells))
}
