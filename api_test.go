package expensive_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"expensive"
)

// lookup returns the catalog handle registered under id.
func lookup(t *testing.T, id string) expensive.Protocol {
	t.Helper()
	p, ok := expensive.LookupProtocol(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	return p
}

// build is the one route to a cataloged protocol's machines: look the
// handle up, build it with centrally validated parameters.
func build(t *testing.T, id string, params expensive.ProtocolParams) (expensive.Factory, int) {
	t.Helper()
	factory, rounds, err := lookup(t, id).Build(params)
	if err != nil {
		t.Fatalf("build %s: %v", id, err)
	}
	return factory, rounds
}

func TestFacadeWeakConsensusLifecycle(t *testing.T) {
	n, tf := 5, 1
	factory, rounds := build(t, "weak-phase-king", expensive.DefaultProtocolParams(n, tf))
	proposals := []expensive.Value{expensive.One, expensive.One, expensive.One, expensive.One, expensive.One}
	cfg := expensive.RunConfig{N: n, T: tf, Proposals: proposals, MaxRounds: rounds + 1}
	exec, err := expensive.RunProtocol(cfg, factory, expensive.NoFaults())
	if err != nil {
		t.Fatalf("RunProtocol: %v", err)
	}
	if err := expensive.ValidateExecution(exec); err != nil {
		t.Errorf("ValidateExecution: %v", err)
	}
	d, err := exec.CommonDecision(expensive.Universe(n))
	if err != nil || d != expensive.One {
		t.Errorf("decision %q err %v", d, err)
	}
}

func TestFacadeBroadcastAndIC(t *testing.T) {
	n, tf := 4, 1
	scheme := expensive.NewIdealScheme("api-test")
	params := expensive.ProtocolParams{N: n, T: tf, Sender: 2, Scheme: scheme, Default: "⊥"}
	bb, rounds := build(t, "dolev-strong", params)
	cfg := expensive.RunConfig{
		N: n, T: tf,
		Proposals: []expensive.Value{"a", "b", "proposal-c", "d"},
		MaxRounds: rounds + 1,
	}
	exec, err := expensive.RunProtocol(cfg, bb, expensive.NoFaults())
	if err != nil {
		t.Fatal(err)
	}
	d, err := exec.CommonDecision(expensive.Universe(n))
	if err != nil || d != "proposal-c" {
		t.Errorf("broadcast decision %q err %v", d, err)
	}

	icf, icRounds := build(t, "ic", params)
	cfg.MaxRounds = icRounds + 1
	exec, err = expensive.RunProtocol(cfg, icf, expensive.NoFaults())
	if err != nil {
		t.Fatal(err)
	}
	dv, err := exec.CommonDecision(expensive.Universe(n))
	if err != nil {
		t.Fatal(err)
	}
	vec, err := expensive.DecodeVector(dv)
	if err != nil || len(vec) != n || vec[2] != "proposal-c" {
		t.Errorf("IC vector %v err %v", vec, err)
	}
}

func TestFacadeFalsifier(t *testing.T) {
	n, tf := 40, 16
	factory := silentFactory()
	rep, err := expensive.FalsifyWeakConsensus("silent", factory, 1, n, tf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Broken() {
		t.Fatal("silent protocol not falsified")
	}
	if err := rep.Recheck(factory, 1); err != nil {
		t.Fatalf("Recheck: %v", err)
	}
}

func silentFactory() expensive.Factory {
	return func(id expensive.ProcessID, proposal expensive.Value) expensive.Machine {
		return &silentM{v: proposal}
	}
}

type silentM struct {
	v       expensive.Value
	decided bool
}

func (m *silentM) Init() []expensive.Outgoing { return nil }
func (m *silentM) Step(round int, _ []expensive.Message) []expensive.Outgoing {
	if round == 1 {
		m.decided = true
	}
	return nil
}
func (m *silentM) Decision() (expensive.Value, bool) {
	if !m.decided {
		return "", false
	}
	return m.v, true
}
func (m *silentM) Quiescent() bool { return true }

func TestFacadeSolvability(t *testing.T) {
	p := expensive.StrongProblem(4, 2)
	verdict := expensive.CheckSolvability(p)
	if verdict.Authenticated {
		t.Error("strong consensus at n=2t should be unsolvable")
	}
	if _, err := expensive.SolveAuthenticated(p, expensive.NewIdealScheme("api")); err == nil {
		t.Error("expected derivation refusal")
	}

	q := expensive.WeakProblem(4, 1)
	d, err := expensive.SolveUnauthenticated(q)
	if err != nil {
		t.Fatalf("SolveUnauthenticated: %v", err)
	}
	c, err := expensive.NewInputConfig(4, map[expensive.ProcessID]expensive.Value{
		0: expensive.Zero, 1: expensive.Zero, 2: expensive.Zero, 3: expensive.Zero,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := expensive.CheckDerived(q, d, c, nil); err != nil {
		t.Errorf("CheckDerived: %v", err)
	}
}

func TestFacadeAlgorithm1(t *testing.T) {
	n, tf := 5, 1
	inner, rounds := build(t, "phase-king", expensive.DefaultProtocolParams(n, tf))
	c0 := []expensive.Value{expensive.Zero, expensive.Zero, expensive.Zero, expensive.Zero, expensive.Zero}
	c1 := []expensive.Value{expensive.One, expensive.One, expensive.One, expensive.One, expensive.One}
	wrapped, spec, err := expensive.DeriveWeakFromAgreement(inner, n, tf, rounds+2, c0, c1)
	if err != nil {
		t.Fatal(err)
	}
	if spec.V0 != expensive.Zero {
		t.Errorf("V0 = %q", spec.V0)
	}
	cfg := expensive.RunConfig{N: n, T: tf, Proposals: c1, MaxRounds: rounds + 2}
	exec, err := expensive.RunProtocol(cfg, wrapped, expensive.NoFaults())
	if err != nil {
		t.Fatal(err)
	}
	d, err := exec.CommonDecision(expensive.Universe(n))
	if err != nil || d != expensive.One {
		t.Errorf("decision %q err %v", d, err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := expensive.ExperimentIDs()
	if len(ids) != 12 {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	tab, err := expensive.RunExperiment("E7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Render(), "Theorem 5") {
		t.Error("E7 render missing title")
	}
	if _, err := expensive.RunExperiment("nope"); err == nil {
		t.Error("expected unknown-experiment error")
	}

	infos := expensive.ListExperiments()
	if len(infos) != len(ids) {
		t.Fatalf("ListExperiments returned %d entries, want %d", len(infos), len(ids))
	}
	for i, info := range infos {
		if info.ID != ids[i] {
			t.Errorf("ListExperiments[%d].ID = %s, want %s", i, info.ID, ids[i])
		}
		if info.Title == "" {
			t.Errorf("%s: empty title", info.ID)
		}
	}

	results, err := expensive.RunExperiments(expensive.ExperimentOptions{Parallelism: 2}, "E7", "E10")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Table.ID != "E7" || results[1].Table.ID != "E10" {
		t.Fatalf("RunExperiments results out of order: %v", results)
	}
	for _, res := range results {
		if res.Probes <= 0 && res.Table.ID == "E10" {
			t.Errorf("%s: probe count %d, want > 0", res.Table.ID, res.Probes)
		}
		if res.Wall <= 0 {
			t.Errorf("%s: wall clock %v", res.Table.ID, res.Wall)
		}
	}
}

func TestFacadeTransports(t *testing.T) {
	n, tf := 4, 1
	weig := lookup(t, "weak-eig")
	params := expensive.DefaultProtocolParams(n, tf)
	proposals := []expensive.Value{expensive.Zero, expensive.Zero, expensive.Zero, expensive.Zero}

	mem := expensive.NewMemMesh(n, nil)
	results, err := expensive.RunClusterFor(mem, weig, params, proposals)
	if err != nil {
		t.Fatal(err)
	}
	d, err := expensive.ClusterDecision(results, expensive.Universe(n))
	if err != nil || d != expensive.Zero {
		t.Errorf("mem decision %q err %v", d, err)
	}

	tcp, err := expensive.NewTCPMesh(n)
	if err != nil {
		t.Fatal(err)
	}
	results, err = expensive.RunClusterFor(tcp, weig, params, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := expensive.ClusterDecision(results, expensive.Universe(n)); err != nil || d != expensive.Zero {
		t.Errorf("tcp decision %q err %v", d, err)
	}
}

func TestFacadeExternal(t *testing.T) {
	n, tf := 4, 1
	scheme := expensive.NewEd25519Scheme("api-ext", n, expensive.ClientID(0))
	auth := expensive.NewTxAuthority(scheme)
	tx, err := auth.NewTx(expensive.ClientID(0), "payload")
	if err != nil {
		t.Fatal(err)
	}
	if !auth.Valid(tx) {
		t.Fatal("authority rejects its own tx")
	}
	factory, rounds := expensive.NewExternalAgreement(n, tf, scheme, auth, tx)
	proposals := []expensive.Value{tx, tx, tx, tx}
	cfg := expensive.RunConfig{N: n, T: tf, Proposals: proposals, MaxRounds: rounds + 1}
	exec, err := expensive.RunProtocol(cfg, factory, expensive.NoFaults())
	if err != nil {
		t.Fatal(err)
	}
	d, err := exec.CommonDecision(expensive.Universe(n))
	if err != nil || d != tx {
		t.Errorf("decision %q err %v", d, err)
	}
}

func TestFacadeGradecastAndFloodSet(t *testing.T) {
	n, tf := 7, 2
	gc, rounds := build(t, "gradecast", expensive.ProtocolParams{N: n, T: tf, Sender: 3})
	proposals := make([]expensive.Value, n)
	for i := range proposals {
		proposals[i] = "payload"
	}
	cfg := expensive.RunConfig{N: n, T: tf, Proposals: proposals, MaxRounds: rounds + 1}
	exec, err := expensive.RunProtocol(cfg, gc, expensive.NoFaults())
	if err != nil {
		t.Fatal(err)
	}
	d, err := exec.CommonDecision(expensive.Universe(n))
	if err != nil {
		t.Fatal(err)
	}
	grade, v, err := expensive.ParseGradecast(d)
	if err != nil || grade != 2 || v != "payload" {
		t.Errorf("gradecast output (%d, %q, %v)", grade, v, err)
	}

	fs, fsRounds := build(t, "floodset", expensive.DefaultProtocolParams(4, 1))
	cfg = expensive.RunConfig{N: 4, T: 1, Proposals: []expensive.Value{"c", "a", "b", "d"}, MaxRounds: fsRounds + 1}
	exec, err = expensive.RunProtocol(cfg, fs, expensive.NoFaults())
	if err != nil {
		t.Fatal(err)
	}
	if d, err := exec.CommonDecision(expensive.Universe(4)); err != nil || d != "a" {
		t.Errorf("floodset decision %q err %v", d, err)
	}

	es, esRounds := build(t, "floodset-early", expensive.DefaultProtocolParams(4, 1))
	cfg.MaxRounds = esRounds + 1
	exec, err = expensive.RunProtocol(cfg, es, expensive.NoFaults())
	if err != nil {
		t.Fatal(err)
	}
	if d, err := exec.CommonDecision(expensive.Universe(4)); err != nil || d != "a" {
		t.Errorf("early floodset decision %q err %v", d, err)
	}
}

func TestFacadeReplicatedLog(t *testing.T) {
	n, tf := 5, 1
	pk := lookup(t, "phase-king")
	log, err := expensive.NewReplicatedLogFor(pk, expensive.DefaultProtocolParams(n, tf), expensive.Zero)
	if err != nil {
		t.Fatal(err)
	}
	// Binary commands only for phase-king; submit a 1 at every replica so
	// the slot decides 1 regardless of king behavior.
	for i := 0; i < n; i++ {
		if err := log.Submit(expensive.ProcessID(i), expensive.One); err != nil {
			t.Fatal(err)
		}
	}
	entry, err := log.CommitSlot()
	if err != nil {
		t.Fatal(err)
	}
	if entry.Command != expensive.One {
		t.Errorf("committed %q", entry.Command)
	}
	if entry.Messages == 0 {
		t.Error("slot committed without messages")
	}
	if len(log.Entries()) != 1 {
		t.Errorf("log height %d", len(log.Entries()))
	}
}

func TestFacadeRenderExecution(t *testing.T) {
	factory, rounds := build(t, "phase-king", expensive.DefaultProtocolParams(5, 1))
	proposals := []expensive.Value{"0", "1", "0", "1", "0"}
	cfg := expensive.RunConfig{N: 5, T: 1, Proposals: proposals, MaxRounds: rounds + 1}
	exec, err := expensive.RunProtocol(cfg, factory, expensive.NoFaults())
	if err != nil {
		t.Fatal(err)
	}
	out := expensive.RenderExecution(exec, 4, map[string]expensive.ProcessSet{
		"kings": expensive.NewProcessSet(0, 1),
	})
	if !strings.Contains(out, "p0") || !strings.Contains(out, "kings") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestErrorsAreDiagnosable(t *testing.T) {
	// Unsolvable errors can be matched through the facade.
	_, err := expensive.SolveUnauthenticated(expensive.WeakProblem(4, 2))
	if err == nil {
		t.Fatal("expected error")
	}
	var target error
	_ = target
	if !strings.Contains(err.Error(), "unsolvable") {
		t.Errorf("error %q lacks context", err)
	}
	if errors.Unwrap(err) == nil && !strings.Contains(err.Error(), "Theorem 4") {
		t.Errorf("error %q should carry the theorem context", err)
	}
}

func TestFacadeAdversaryHunt(t *testing.T) {
	// The full hunt lifecycle through the facade: campaign, violation,
	// shrink, independent recheck — the E10 FloodSet split as a one-liner.
	n, tf := 8, 2
	fs := lookup(t, "floodset")
	factory, rounds := build(t, "floodset", expensive.DefaultProtocolParams(n, tf))
	// The keyed literal is how a protocol outside the catalog is hunted:
	// every hook NewCampaignFor would have filled is set by hand.
	campaign := &expensive.Campaign{
		Target: expensive.AttackTarget{
			Protocol: "floodset", Factory: factory, Rounds: rounds, N: n, T: tf,
			Validity: expensive.CheckWeakValidity,
			New: func(n, t int) (expensive.Factory, int, error) {
				return fs.Build(expensive.DefaultProtocolParams(n, t))
			},
		},
		Strategy: expensive.StrategyTargetedWithhold(),
		Seeds:    expensive.SeedRange{From: 0, To: 16},
	}
	report, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Broken() {
		t.Fatal("targeted withholding should split FloodSet in 16 seeds")
	}
	v := report.Violations[0]
	opts := expensive.ShrinkOptions{
		Target: expensive.AttackTarget{
			Factory:  factory,
			Rounds:   rounds,
			N:        n,
			T:        tf,
			New:      campaign.New,
			Validity: campaign.Validity,
		},
	}
	shrunk, err := expensive.Shrink(v, opts)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if shrunk.OmitAfter > shrunk.OmitBefore {
		t.Errorf("shrink grew the plan: %v", shrunk)
	}
	v.Shrunk = shrunk
	if err := expensive.RecheckViolation(v, opts); err != nil {
		t.Fatalf("RecheckViolation: %v", err)
	}
}

func TestFacadeProblemCampaign(t *testing.T) {
	p := expensive.WeakProblem(4, 1)
	d, err := expensive.SolveAuthenticated(p, expensive.NewIdealScheme("api-hunt"))
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := expensive.NewProblemCampaign(p, d,
		expensive.StrategyUnion(expensive.StrategyRandomOmission(40), expensive.StrategyChaos()),
		expensive.SeedRange{From: 0, To: 10})
	if err != nil {
		t.Fatal(err)
	}
	report, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Broken() {
		t.Fatalf("derived weak consensus broken: %v", report.Violations[0])
	}
}

// TestFacadeProtocolCatalog exercises the first-class protocol surface:
// registry queries, introspection, checked builds with typed errors, and
// a registry-driven campaign with catalog-derived recheck options.
func TestFacadeProtocolCatalog(t *testing.T) {
	protos := expensive.Protocols()
	if len(protos) < 10 {
		t.Fatalf("catalog has %d protocols, expected the full library", len(protos))
	}
	pk := lookup(t, "phase-king")
	if pk.Model != expensive.Unauthenticated || pk.Condition != "n > 4t" {
		t.Fatalf("phase-king taxonomy wrong: %q %q", pk.Model, pk.Condition)
	}
	if pk.SupportedAt(4, 1) || !pk.SupportedAt(5, 1) {
		t.Fatal("SupportedAt disagrees with n > 4t")
	}
	// Checked build: typed error outside the resilience condition.
	_, _, err := pk.Build(expensive.DefaultProtocolParams(4, 1))
	if !errors.Is(err, expensive.ErrUnsupported) {
		t.Fatalf("Build at n=4 t=1: err %v, want ErrUnsupported", err)
	}
	var pe *expensive.ProtocolParamsError
	if !errors.As(err, &pe) || pe.Protocol != "phase-king" {
		t.Fatalf("error %v is not a ParamsError naming phase-king", err)
	}
	factory, rounds, err := pk.Build(expensive.DefaultProtocolParams(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if factory == nil || rounds != 4 {
		t.Fatalf("phase-king build: rounds %d, want 4", rounds)
	}
	// The other typed failure: structurally invalid parameters.
	ds, _ := expensive.LookupProtocol("dolev-strong")
	if _, _, err := ds.Build(expensive.ProtocolParams{N: 4, T: 1, Sender: 9}); !errors.Is(err, expensive.ErrBadParams) {
		t.Fatalf("dolev-strong without a scheme, sender outside Π: err %v, want ErrBadParams", err)
	}
	// Every model of the taxonomy is populated.
	fs, _ := expensive.LookupProtocol("floodset")
	if ds.Model != expensive.Authenticated || fs.Model != expensive.CrashOnly {
		t.Fatalf("models: dolev-strong %q, floodset %q", ds.Model, fs.Model)
	}
}

// TestFacadeCampaignFor runs the registry-driven hunt lifecycle: find the
// E10 FloodSet split through a catalog handle and re-validate it with
// catalog-derived shrink options.
func TestFacadeCampaignFor(t *testing.T) {
	fs := lookup(t, "floodset")
	params := expensive.DefaultProtocolParams(8, 2)
	campaign, err := expensive.NewCampaignFor(fs, params,
		expensive.StrategyTargetedWithhold(), expensive.SeedRange{From: 0, To: 16})
	if err != nil {
		t.Fatal(err)
	}
	report, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Broken() {
		t.Fatal("targeted withholding should split FloodSet in 16 seeds")
	}
	opts, err := expensive.ShrinkOptionsFor(fs, params)
	if err != nil {
		t.Fatal(err)
	}
	opts.Horizon = report.Horizon
	if err := expensive.RecheckViolation(report.Violations[0], opts); err != nil {
		t.Fatalf("recheck: %v", err)
	}
}

// TestFacadeFuzzer drives the coverage-guided hunt through the public
// surface: build from a catalog handle, run to the FloodSet split,
// recheck the certificate, persist and reload the corpus.
func TestFacadeFuzzer(t *testing.T) {
	fs := lookup(t, "floodset")
	params := expensive.DefaultProtocolParams(4, 3)
	fuzzer, err := expensive.NewFuzzerFor(fs, params, expensive.StrategyRandomSendOmission(40), 2048)
	if err != nil {
		t.Fatal(err)
	}
	fuzzer.StopOnViolation = true
	fuzzer.MaxViolations = 1
	report, err := fuzzer.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Broken() {
		t.Fatalf("adaptive fuzzing should split FloodSet at t=n-1 within budget (probes %d, corpus %d)",
			report.Probes, report.CorpusSize)
	}
	if err := expensive.RecheckViolation(report.Violations[0], fuzzer.ShrinkOptions()); err != nil {
		t.Fatalf("recheck: %v", err)
	}

	path := filepath.Join(t.TempDir(), "corpus.json")
	if err := fuzzer.Corpus.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := expensive.LoadFuzzCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != fuzzer.Corpus.Size() {
		t.Fatalf("corpus round-trip lost entries: %d -> %d", fuzzer.Corpus.Size(), loaded.Size())
	}

	// The keyed literal mirrors the Campaign one: unchecked, tune-then-run.
	factory, rounds := build(t, "floodset", params)
	raw := &expensive.Fuzzer{
		Target: expensive.AttackTarget{Protocol: "floodset", Factory: factory, Rounds: rounds, N: 4, T: 3,
			Validity: expensive.CheckWeakValidity},
		Seed:   expensive.StrategyRandomSendOmission(40),
		Budget: 64,
	}
	if _, err := raw.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeMatrix runs a small registry-driven matrix and checks the
// skip/violation bookkeeping.
func TestFacadeMatrix(t *testing.T) {
	fs, _ := expensive.LookupProtocol("floodset")
	pk, _ := expensive.LookupProtocol("phase-king")
	m := expensive.NewMatrix(expensive.SeedRange{From: 0, To: 6})
	m.Protocols = []expensive.Protocol{fs, pk}
	m.Strategies = expensive.StrategyLibrary(40)[:2]
	m.Sizes = []expensive.MatrixSize{{N: 4, T: 1}, {N: 5, T: 1}}
	m.Parallelism = 2
	grid, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 2*2*2 {
		t.Fatalf("grid has %d cells, want 8", len(grid.Cells))
	}
	if grid.SkippedCells == 0 {
		t.Fatal("phase-king at n=4 t=1 should be skipped")
	}
}

// TestFacadeCatalogConsumers drives the SMR and live-cluster layers off
// catalog handles.
func TestFacadeCatalogConsumers(t *testing.T) {
	pk, _ := expensive.LookupProtocol("phase-king")
	log, err := expensive.NewReplicatedLogFor(pk, expensive.DefaultProtocolParams(5, 1), expensive.Zero)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := log.Submit(expensive.ProcessID(i), expensive.One); err != nil {
			t.Fatal(err)
		}
	}
	if entry, err := log.CommitSlot(); err != nil || entry.Command != expensive.One {
		t.Fatalf("slot: %v %v", entry, err)
	}

	weig, _ := expensive.LookupProtocol("weak-eig")
	params := expensive.DefaultProtocolParams(4, 1)
	proposals := []expensive.Value{expensive.One, expensive.One, expensive.One, expensive.One}
	results, err := expensive.RunClusterFor(expensive.NewMemMesh(4, nil), weig, params, proposals)
	if err != nil {
		t.Fatal(err)
	}
	d, err := expensive.ClusterDecision(results, expensive.Universe(4))
	if err != nil || d != expensive.One {
		t.Fatalf("cluster decision %q err %v", d, err)
	}
}

// TestFacadeSurfaceIsUsed holds api.go to its rule: an exported
// declaration is there because an example or a root test names it, or
// because another exported declaration's signature does. Anything else is
// a second name for something internal that nobody reaches — delete it,
// or write the example that needs it.
func TestFacadeSurfaceIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	examples, _ := filepath.Glob("examples/*/main.go")
	tests, _ := filepath.Glob("*_test.go")
	if len(examples) == 0 || len(tests) == 0 {
		t.Fatal("no examples or root tests found: the test must run in the module root")
	}
	for _, path := range append(examples, tests...) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "expensive" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	api, err := parser.ParseFile(fset, "api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []*ast.Ident
	declare := func(name *ast.Ident, signature ast.Node) {
		if !name.IsExported() {
			return
		}
		exported = append(exported, name)
		if signature != nil {
			ast.Inspect(signature, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
		}
	}
	for _, d := range api.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declare(d.Name, d.Type)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declare(spec.Name, nil)
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						declare(name, spec.Type)
					}
				}
			}
		}
	}
	for _, name := range exported {
		if !used[name.Name] {
			t.Errorf("%s: %s is named by no example, no root test and no exported signature",
				fset.Position(name.Pos()), name.Name)
		}
	}
}
