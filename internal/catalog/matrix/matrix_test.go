package matrix_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // register every protocol
	"expensive/internal/catalog/matrix"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/transport/memnet"
)

// smallMatrix is the canonical test sweep: two breakable and one sound
// protocol, two strategies, two sizes — one of which excludes phase-king
// by resilience.
func smallMatrix(parallelism int) *matrix.Matrix {
	specs := []catalog.Spec{}
	for _, id := range []string{"floodset", "phase-king", "gradecast"} {
		s, ok := catalog.Lookup(id)
		if !ok {
			panic("missing " + id)
		}
		specs = append(specs, s)
	}
	tw, _ := adversary.FromLibrary("targeted-withhold", 0)
	ch, _ := adversary.FromLibrary("chaos", 0)
	return &matrix.Matrix{
		Protocols: specs,
		Strategies: []adversary.Named{
			{ID: "targeted-withhold", Strategy: tw},
			{ID: "chaos", Strategy: ch},
		},
		Sizes:       []matrix.Size{{N: 4, T: 1}, {N: 5, T: 1}},
		Seeds:       adversary.SeedRange{From: 0, To: 8},
		Parallelism: parallelism,
	}
}

// TestGridDeterminism is the parallelism contract: the JSON grid is
// byte-identical at parallelism 1 and NumCPU.
func TestGridDeterminism(t *testing.T) {
	encode := func(parallelism int) []byte {
		g, err := smallMatrix(parallelism).Run()
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := encode(1)
	parallel := encode(8) // explicit width: exercises the pool even on one core
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("grids differ between parallelism levels:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestGridShape pins the cross-product: cell count, ordering, skipping by
// resilience, and the expected FloodSet violation.
func TestGridShape(t *testing.T) {
	g, err := smallMatrix(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 3*2*2 {
		t.Fatalf("grid has %d cells, want 12", len(g.Cells))
	}
	find := func(proto, strat string, n int) *matrix.Cell {
		for i := range g.Cells {
			c := &g.Cells[i]
			if c.Protocol == proto && c.Strategy == strat && c.N == n {
				return c
			}
		}
		t.Fatalf("cell %s × %s n=%d missing", proto, strat, n)
		return nil
	}
	// Phase-King at (4, 1) violates n > 4t: skipped, reason names the
	// condition, no probes counted.
	skipped := find("phase-king", "chaos", 4)
	if !skipped.Skipped || !strings.Contains(skipped.Reason, "n > 4t") || skipped.Probes != 0 {
		t.Fatalf("phase-king at n=4 should be skipped with the condition, got %+v", skipped)
	}
	// Phase-King at (5, 1) runs clean.
	sound := find("phase-king", "chaos", 5)
	if sound.Skipped || sound.Broken() || sound.Probes != 8 {
		t.Fatalf("phase-king at n=5 should run 8 clean probes, got %+v", sound)
	}
	// FloodSet splits under targeted withholding somewhere in the grid.
	broken := 0
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Protocol == "floodset" && c.Strategy == "targeted-withhold" && c.Broken() {
			broken++
			if len(c.Violations) == 0 {
				t.Fatalf("broken cell records no violation: %+v", c)
			}
		}
	}
	if broken == 0 {
		t.Fatal("targeted withholding never split FloodSet in the grid")
	}
	if g.ViolatingCells < broken || g.SkippedCells == 0 || !g.Broken() {
		t.Fatalf("summary inconsistent: %+v", g)
	}
}

// TestMatrixDefaultsCoverTheRegistry runs the zero-config matrix (tiny
// seed range) and checks every registered protocol and every library
// strategy appears.
func TestMatrixDefaultsCoverTheRegistry(t *testing.T) {
	m := &matrix.Matrix{
		Seeds: adversary.SeedRange{From: 0, To: 2},
		Sizes: []matrix.Size{{N: 4, T: 1}},
	}
	g, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Protocols) != len(catalog.Protocols()) {
		t.Fatalf("grid covers %d protocols, registry has %d", len(g.Protocols), len(catalog.Protocols()))
	}
	if len(g.Strategies) != len(adversary.Library(matrix.DefaultBias)) {
		t.Fatalf("grid covers %d strategies, library has %d", len(g.Strategies), len(adversary.Library(matrix.DefaultBias)))
	}
	if len(g.Cells) != len(g.Protocols)*len(g.Strategies) {
		t.Fatalf("cells %d, want %d", len(g.Cells), len(g.Protocols)*len(g.Strategies))
	}
}

// TestMatrixValidation rejects malformed sweeps.
func TestMatrixValidation(t *testing.T) {
	if _, err := (&matrix.Matrix{}).Run(); err == nil {
		t.Error("empty seed range accepted")
	}
	m := &matrix.Matrix{
		Seeds: adversary.SeedRange{From: 0, To: 1},
		Sizes: []matrix.Size{{N: 3, T: 0}},
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "1 <= t < n") {
		t.Errorf("t=0 size accepted: %v", err)
	}
}

// TestMatrixSurfacesBadParams: a misconfigured Params hook must fail the
// sweep, not be silently recorded as skipped cells.
func TestMatrixSurfacesBadParams(t *testing.T) {
	spec, _ := catalog.Lookup("dolev-strong") // needs a scheme
	strat, _ := adversary.FromLibrary("chaos", 0)
	m := &matrix.Matrix{
		Protocols:  []catalog.Spec{spec},
		Strategies: []adversary.Named{{ID: "chaos", Strategy: strat}},
		Sizes:      []matrix.Size{{N: 4, T: 1}},
		Seeds:      adversary.SeedRange{From: 0, To: 1},
		Params:     func(n, t int) catalog.Params { return catalog.Params{N: n, T: t} },
	}
	_, err := m.Run()
	if !errors.Is(err, catalog.ErrBadParams) {
		t.Fatalf("err %v, want ErrBadParams surfaced (not a skipped cell)", err)
	}
}

// TestProbeCellSkipsOnlyResilienceRefusals reaches ProbeCell's refusal
// branch, past the SupportedAt check, through a Params hook that builds
// at another size. Phase-king supports the cell's (9, 2), but the hook
// asks for (8, 2), which its n > 4t condition refuses as ErrUnsupported:
// the cell is skipped and its Reason is that refusal. A hook that leaves
// out the signature scheme Dolev-Strong needs is refused as ErrBadParams,
// which ProbeCell returns as an error, not as a skipped cell.
func TestProbeCellSkipsOnlyResilienceRefusals(t *testing.T) {
	strat, _ := adversary.FromLibrary("chaos", 0)
	named := adversary.Named{ID: "chaos", Strategy: strat}
	seeds := adversary.SeedRange{From: 0, To: 1}

	pk, _ := catalog.Lookup("phase-king")
	size := matrix.Size{N: 9, T: 2}
	if !pk.SupportedAt(size.N, size.T) {
		t.Fatalf("phase-king refuses %+v: the hook would not be reached", size)
	}
	smaller := func(n, t int) catalog.Params { return catalog.DefaultParams(n-1, t) }
	_, _, refusal := pk.Build(smaller(size.N, size.T))
	if !errors.Is(refusal, catalog.ErrUnsupported) {
		t.Fatalf("phase-king at (8, 2): %v, want ErrUnsupported", refusal)
	}
	cell, err := matrix.ProbeCell(pk, named, size, seeds, matrix.CellOptions{Params: smaller})
	if err != nil {
		t.Fatalf("a resilience refusal failed the cell: %v", err)
	}
	if !cell.Skipped || cell.Reason != refusal.Error() || cell.Probes != 0 {
		t.Errorf("cell %+v, want skipped with reason %q and no probes", cell, refusal)
	}

	ds, _ := catalog.Lookup("dolev-strong")
	noScheme := func(n, t int) catalog.Params { return catalog.Params{N: n, T: t, Default: catalog.Bottom} }
	cell, err = matrix.ProbeCell(ds, named, matrix.Size{N: 4, T: 1}, seeds, matrix.CellOptions{Params: noScheme})
	if !errors.Is(err, catalog.ErrBadParams) {
		t.Fatalf("err %v, want ErrBadParams returned", err)
	}
	if cell.Skipped {
		t.Errorf("a bad Params hook was recorded as a skipped cell: %+v", cell)
	}
}

// TestCampaignFor wires a catalog handle into a campaign: the FloodSet
// hunt finds the E10 split, the shrinker reduces it, and the certificate
// survives the catalog-derived recheck.
func TestCampaignFor(t *testing.T) {
	spec, ok := catalog.Lookup("floodset")
	if !ok {
		t.Fatal("floodset not registered")
	}
	params := catalog.DefaultParams(8, 2)
	strategy, _ := adversary.FromLibrary("targeted-withhold", 0)
	c, err := matrix.CampaignFor(spec, params, strategy, adversary.SeedRange{From: 0, To: 32})
	if err != nil {
		t.Fatal(err)
	}
	c.Shrink = true
	c.MaxViolations = 1
	c.Parallelism = 1
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Broken() {
		t.Fatal("targeted withholding should split FloodSet")
	}
	v := rep.Violations[0]
	if v.Shrunk == nil {
		t.Fatal("violation was not shrunk")
	}
	opts, err := matrix.ShrinkOptionsFor(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	opts.Horizon = rep.Horizon
	if err := adversary.Recheck(v, opts); err != nil {
		t.Fatalf("recheck: %v", err)
	}
}

// TestCampaignForValidatesParams: hunting outside the resilience
// condition is a typed error.
func TestCampaignForValidatesParams(t *testing.T) {
	spec, _ := catalog.Lookup("phase-king")
	strategy, _ := adversary.FromLibrary("chaos", 0)
	_, err := matrix.CampaignFor(spec, catalog.DefaultParams(4, 1), strategy, adversary.SeedRange{From: 0, To: 1})
	if !errors.Is(err, catalog.ErrUnsupported) {
		t.Fatalf("err %v, want ErrUnsupported", err)
	}
}

// TestLogFor drives a replicated log off a catalog handle.
func TestLogFor(t *testing.T) {
	spec, _ := catalog.Lookup("phase-king")
	log, err := matrix.LogFor(spec, catalog.DefaultParams(5, 1), msg.Zero)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := log.Submit(proc.ID(i), msg.One); err != nil {
			t.Fatal(err)
		}
	}
	entry, err := log.CommitSlot()
	if err != nil {
		t.Fatal(err)
	}
	if entry.Command != msg.One {
		t.Fatalf("committed %q", entry.Command)
	}
}

// TestClusterFor drives a cataloged protocol over a live in-memory mesh.
func TestClusterFor(t *testing.T) {
	spec, _ := catalog.Lookup("weak-eig")
	params := catalog.DefaultParams(4, 1)
	proposals := []msg.Value{msg.One, msg.One, msg.One, msg.One}
	results, err := matrix.ClusterFor(spec, params, memnet.New(4, nil).Endpoints(), proposals)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Decided || r.Decision != msg.One {
			t.Fatalf("node %s: %+v", r.ID, r)
		}
	}
}
