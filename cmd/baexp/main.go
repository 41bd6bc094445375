// Command baexp is the experiment and exploration CLI of the library.
//
//	baexp exp [-json] [-parallel N] [-list] E1 [E2 ...]
//	                        run paper experiments (default: all) on the
//	                        parallel engine
//	baexp falsify ...       run the Theorem 2 falsifier on one protocol
//	baexp hunt ...          run a seeded adversary campaign and shrink
//	                        whatever it finds to a minimal counterexample
//	baexp fuzz ...          run a coverage-guided adaptive hunt that mutates
//	                        fault plans from a replayable corpus
//	baexp matrix ...        sweep the full protocol × strategy × (n, t)
//	                        cross-product from the registry
//	baexp solve ...         evaluate Theorem 4 for a standard problem
//	baexp run ...           run a protocol live over memnet or TCP
//	baexp coord ...         coordinate a hunt/fuzz/matrix campaign sharded
//	                        across worker processes (deterministic merge)
//	baexp worker ...        connect to a coordinator and probe work units
//	baexp soak ...          run a campaign under worker churn and wire chaos
//	                        and demand byte-identity with the serial oracle
//	baexp lint ...          run the balint analyzer suite over the module
//
// Every protocol offering is derived from the catalog registry
// (internal/catalog) — there is no hand-maintained protocol table here.
// A campaign has one description, dist.Job: hunt, fuzz, matrix, coord and
// soak parse the same job flags with one per-kind defaults table
// (addJobFlags, jobDefaults), and hunt|fuzz|matrix are dist.Serial of the
// Job that `coord -kind K` distributes, printed by the same emit.
// Run `baexp <subcommand> -h` for flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/analysis/balint"
	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // link every protocol registration
	cmatrix "expensive/internal/catalog/matrix"
	"expensive/internal/crypto/sig"
	"expensive/internal/dist"
	"expensive/internal/experiments"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/solve"
	"expensive/internal/transport"
	"expensive/internal/transport/memnet"
	"expensive/internal/transport/tcpnet"
	"expensive/internal/validity"
	"expensive/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "baexp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage(os.Stderr)
		return nil
	}
	switch args[0] {
	case "exp", "experiments":
		return runExperiments(args[1:])
	case "falsify":
		return runFalsify(args[1:])
	case "hunt", "fuzz", "matrix":
		return runCampaign(args[0], args[1:])
	case "solve":
		return runSolve(args[1:])
	case "run":
		return runLive(args[1:])
	case "coord":
		return runCoord(args[1:])
	case "worker":
		return runWorker(args[1:])
	case "soak":
		return runSoak(args[1:])
	case "lint":
		return runLint(args[1:])
	case "help", "-h", "--help":
		usage(os.Stdout)
		return nil
	default:
		// Usage on error is diagnostics, not output: it goes to stderr so
		// piped stdout (e.g. `baexp hunt -json | jq`) never sees it.
		usage(os.Stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `baexp — "All Byzantine Agreement Problems are Expensive" (PODC 2024), executable

subcommands:
  exp [-json] [-parallel N] [-list] [IDs...]
                 run paper experiments E1..E12 (default: all) on the parallel engine
  falsify        run the Theorem 2 falsifier against a weak consensus protocol
  hunt           run a seeded adversary campaign against a cataloged protocol
                 and shrink whatever it finds to a minimal counterexample
  fuzz           run a coverage-guided adaptive hunt: mutate fault plans from
                 a replayable corpus instead of sweeping fresh seeds
  matrix         sweep the full protocol × strategy × (n, t) cross-product
                 from the registry into a deterministic grid report
  solve          evaluate the Theorem 4 solvability verdict for a problem
  run            run a cataloged protocol live over an in-memory or TCP mesh
  coord          coordinate a distributed hunt/fuzz/matrix campaign: shard
                 work units over TCP workers, merge deterministically,
                 checkpoint/resume; -workers N forks local workers
  worker         connect to a coordinator and execute its work units; -chaos
                 injects a deterministic fault profile on the coordinator
                 link, -reconnect resumes sessions across link loss
  soak           run a hunt/fuzz/matrix campaign under a -churn kill schedule
                 and -chaos wire faults, then demand byte-identity with the
                 serial oracle; -kind smr soaks the replicated log with
                 online safety/liveness monitors instead
  lint [-list] [-v] [-json] [-dir D]
                 run the balint analyzer suite (determinism, lean-tier,
                 registry, telemetry side-channel and sentinel contracts)
                 over the module; -json emits the findings array on stdout

telemetry (exp, falsify, hunt, fuzz, matrix):
  -progress      live progress lines + final summary block on stderr
  -metrics-out F trace events + metrics snapshot as JSONL
  -pprof ADDR    net/http/pprof, expvar and /metrics HTTP server
                 reports on stdout stay byte-identical either way`)
}

// printListing is the shared registry printer behind `exp -list`,
// `hunt -list` and `matrix -list`: aligned (id, title, note) rows.
func printListing(rows [][3]string) {
	w := 0
	for _, r := range rows {
		if len(r[0]) > w {
			w = len(r[0])
		}
	}
	for _, r := range rows {
		if r[2] == "" {
			fmt.Printf("  %-*s  %s\n", w, r[0], r[1])
			continue
		}
		fmt.Printf("  %-*s  %s (%s)\n", w, r[0], r[1], r[2])
	}
}

// printCatalog lists the protocol registry (ID, title, model, resilience
// condition) and the strategy library — the common body of `hunt -list`
// and `matrix -list`.
func printCatalog(bias int) {
	var rows [][3]string
	for _, s := range catalog.Protocols() {
		rows = append(rows, [3]string{s.ID, s.Title, fmt.Sprintf("%s, %s", s.Model, s.Condition)})
	}
	fmt.Println("protocols:")
	printListing(rows)
	rows = rows[:0]
	for _, e := range adversary.Library(bias) {
		rows = append(rows, [3]string{e.ID, e.Strategy.Name, ""})
	}
	fmt.Println("strategies:")
	printListing(rows)
}

// runLint is the `baexp lint` frontend over internal/analysis/balint —
// the same suite cmd/balint and the CI lint job run. `-list` shares the
// registry listing convention of `exp -list` and `hunt -list`.
func runLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the suite's analyzers and exit")
	verbose := fs.Bool("v", false, "also print suppressed findings with their reasons")
	jsonOut := fs.Bool("json", false, "write the findings (suppressed included) as a JSON array on stdout")
	dir := fs.String("dir", ".", "module root to lint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		var rows [][3]string
		for _, a := range balint.Suite() {
			rows = append(rows, [3]string{a.Name, a.Summary(), ""})
		}
		fmt.Println("analyzers:")
		printListing(rows)
		return nil
	}
	diags, err := balint.LintModule(*dir)
	if err != nil {
		return err
	}
	failing, err := balint.Report(os.Stdout, os.Stderr, diags, *jsonOut, *verbose)
	if err != nil {
		return err
	}
	if failing > 0 {
		return fmt.Errorf("%d unsuppressed finding(s)", failing)
	}
	return nil
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit structured JSON results (table + wall-clock + probe counts)")
	parallel := fs.Int("parallel", 0, "worker count per experiment (0 = NumCPU, 1 = serial)")
	list := fs.Bool("list", false, "list the registered experiments and exit")
	tf := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		var rows [][3]string
		for _, info := range runner.List() {
			rows = append(rows, [3]string{info.ID, info.Title, info.Params})
		}
		printListing(rows)
		return nil
	}
	ids := fs.Args()
	for i := range ids {
		ids[i] = strings.ToUpper(ids[i])
	}
	tel, err := tf.open()
	if err != nil {
		return err
	}
	defer tel.finish() //nolint:errcheck // surfaced by the explicit call below
	// Experiments have no single probe counter, but every one drives the
	// simulator: its global run count is the liveness signal.
	base := sim.Runs()
	tel.watch("exp", 0, func() int64 { return sim.Runs() - base })
	opts := runner.Options{Parallelism: *parallel, Ctx: tel.ctx}
	results, err := runner.RunMany(ids, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := emitJSON(results); err != nil {
			return err
		}
		return tel.finish()
	}
	for _, res := range results {
		fmt.Println(res.Table.Render())
		fmt.Printf("  [%s: %d probes, %.1f ms wall, %d workers]\n\n",
			res.Table.ID, res.Probes, res.WallMS, res.Workers)
	}
	return tel.finish()
}

func runFalsify(args []string) error {
	fs := flag.NewFlagSet("falsify", flag.ContinueOnError)
	protoName := fs.String("proto", "leader", "protocol: "+strings.Join(experiments.FalsifierNames(), "|")+
		" (a catalog ID is lifted to weak consensus by Algorithm 1 at 0/1)")
	n := fs.Int("n", 40, "system size")
	t := fs.Int("t", 16, "fault budget (>= 8)")
	verbose := fs.Bool("v", false, "print the construction narrative")
	parallel := fs.Int("parallel", 0, "probe worker count (0 = NumCPU, 1 = serial)")
	tf := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	candidate, err := experiments.Falsifiable(*protoName)
	if err != nil {
		return err
	}
	tel, err := tf.open()
	if err != nil {
		return err
	}
	defer tel.finish() //nolint:errcheck // surfaced by the explicit call below
	// The falsifier's execution count is unbounded up front, so the
	// progress line carries rate only, no percentage.
	tel.watchCounter("falsify", 0, "falsify_executions")
	rep, err := candidate.Run(*n, *t, lowerbound.Options{Parallelism: *parallel, Ctx: tel.ctx})
	if err != nil {
		return err
	}
	fmt.Printf("protocol %s (%s), n=%d t=%d, threshold t²/32 = %d\n",
		candidate.Name, candidate.Complexity, *n, *t, rep.Threshold)
	fmt.Printf("probe executions: %d, max messages by correct processes: %d\n",
		rep.Executions, rep.MaxCorrectMessages)
	if *verbose {
		for _, l := range rep.Log {
			fmt.Println("  " + l)
		}
	}
	if rep.Broken() {
		fmt.Println("VERDICT:", rep.Violation)
		fmt.Println("certificate independently re-validated: execution guarantees, fault budget, machine conformance all hold")
		if *verbose {
			// Falsify partitioned Π the same way, so this cannot fail.
			part, _ := proc.NewPartition(*n, *t)
			groups := map[string]proc.Set{"A": part.A, "B": part.B, "C": part.C}
			fmt.Println("\ncounterexample execution timeline:")
			fmt.Print(viz.Timeline(rep.Violation.Exec, viz.Options{MaxRounds: 12, Groups: groups}))
		}
	} else {
		fmt.Println("VERDICT: no violation — the protocol paid the quadratic price (Theorem 2 satisfied)")
	}
	return tel.finish()
}

func parseSeedRange(s string) (adversary.SeedRange, error) {
	var r adversary.SeedRange
	from, to, ok := strings.Cut(s, ":")
	if ok {
		var errFrom, errTo error
		r.From, errFrom = strconv.ParseInt(from, 10, 64)
		r.To, errTo = strconv.ParseInt(to, 10, 64)
		ok = errFrom == nil && errTo == nil
	}
	if !ok {
		return r, fmt.Errorf("seed range %q is not FROM:TO", s)
	}
	// Err also rejects widths that used to wrap Count negative and panic
	// the worker pool (e.g. 0:9223372036854775807).
	if err := r.Err(); err != nil {
		return r, err
	}
	return r, nil
}

// runCampaign is `baexp hunt`, `fuzz` and `matrix`: the dist.Job the
// shared job flags describe, run in this process — dist.Serial plus the
// two settings that belong to this invocation and not to the campaign
// (-parallel, -corpus) — and printed by the emit `coord` uses.
// `coord -kind K` with the same flags builds the same Job, which is why
// the two print the same report.
func runCampaign(kind string, args []string) error {
	fs := flag.NewFlagSet(kind, flag.ContinueOnError)
	parallel := fs.Int("parallel", 0, "probe worker count (matrix: cell worker count; 0 = NumCPU, 1 = serial)")
	corpusPath := fs.String("corpus", "", "corpus file: loaded if present, saved after the run (fuzz)")
	jsonOut := fs.Bool("json", false, "emit the deterministic JSON report")
	verbose := fs.Bool("v", false, "render the first shrunk counterexample's timeline (hunt)")
	list := fs.Bool("list", false, "list protocols and strategies and exit")
	jf := addJobFlags(fs, kind)
	tf := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		if err := checkBias(jf.bias); err != nil {
			return err
		}
		printCatalog(jf.bias)
		return nil
	}
	job, err := buildJob(kind, jf)
	if err != nil {
		return err
	}
	local := dist.Local{Parallelism: *parallel}
	if local.Corpus, err = loadCorpus(*corpusPath); err != nil {
		return err
	}
	tel, err := tf.open()
	if err != nil {
		return err
	}
	defer tel.finish() //nolint:errcheck // surfaced by the explicit call below
	// How many matrix cells the resilience conditions will skip is unknown
	// up front, so its progress line reports the probe rate only.
	total, counter := int64(0), "campaign_probes"
	switch {
	case job.Hunt != nil:
		total = int64(job.Hunt.Seeds.Count())
	case job.Fuzz != nil:
		total, counter = int64(job.Fuzz.Budget), "fuzz_probes"
	}
	tel.watchCounter(kind, total, counter)
	report, err := local.Run(tel.ctx, job)
	if err != nil {
		return err
	}
	if err := saveCorpus(*corpusPath, report.Corpus, tel); err != nil {
		return err
	}
	if err := emit(report, job, *jsonOut, *verbose); err != nil {
		return err
	}
	return tel.finish()
}

// loadCorpus reads the -corpus file. Only a genuinely absent file (or no
// -corpus at all) means "start fresh": any other load failure must abort,
// or the final save would overwrite an existing corpus the run silently
// failed to resume from.
func loadCorpus(path string) (*fuzz.Corpus, error) {
	if path == "" {
		return nil, nil
	}
	corpus, err := fuzz.LoadCorpus(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("-corpus: %w", err)
	}
	return corpus, nil
}

// saveCorpus writes a fuzz run's grown corpus back to the -corpus file.
func saveCorpus(path string, corpus *fuzz.Corpus, tel *telemetry) error {
	if path == "" || corpus == nil {
		return nil
	}
	if err := corpus.Save(path); err != nil {
		return err
	}
	if s := tel.rec.Sink(); s != nil {
		s.Emit("corpus-save", "path", path, "size", corpus.Size())
	}
	return nil
}

// inner is the engine report a dist.Report wraps: the bytes `-json`
// prints and the soak oracle compares.
func inner(rep *dist.Report) any {
	switch {
	case rep.Hunt != nil:
		return rep.Hunt
	case rep.Fuzz != nil:
		return rep.Fuzz
	}
	return rep.Grid
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// emit prints a finished campaign, run here or coordinated: the inner
// report as JSON, or its text rendering.
func emit(rep *dist.Report, job *dist.Job, jsonOut, verbose bool) error {
	if jsonOut {
		return emitJSON(inner(rep))
	}
	return render(rep, job, verbose)
}

// engineWall prints a report's wall-clock line when the engine timed the
// run; a report the coordinator merged carries no engine timing (its
// wall is on the coord line).
func engineWall(wall time.Duration, ms, rate float64, workers int) {
	if wall > 0 {
		fmt.Printf("  [%.1f ms wall, %.0f probes/sec, %d workers]\n", ms, rate, workers)
	}
}

// render is the one text rendering of a campaign report, run here or
// coordinated.
func render(rep *dist.Report, job *dist.Job, verbose bool) error {
	switch {
	case rep.Hunt != nil:
		r := rep.Hunt
		fmt.Printf("hunt %s vs %s: n=%d t=%d seeds [%d,%d)\n",
			r.Strategy, r.Protocol, r.N, r.T, r.Seeds.From, r.Seeds.To)
		fmt.Printf("  %d probes, %d violating seeds; messages %d..%d, rounds %d..%d\n",
			r.Probes, r.ViolationCount,
			r.Messages.Min, r.Messages.Max, r.RoundsHist.Min, r.RoundsHist.Max)
		engineWall(r.Wall, r.WallMS, r.ProbesPerSec, r.Workers)
		camp, err := job.Hunt.Campaign()
		if err != nil {
			return err
		}
		return renderVerdicts(r.Violations, camp.RecheckOptions(), verbose)
	case rep.Fuzz != nil:
		r := rep.Fuzz
		fmt.Printf("fuzz %s vs %s: n=%d t=%d budget %d\n",
			r.SeedStrategy, r.Protocol, r.N, r.T, r.Budget)
		fmt.Printf("  %d probes over %d generations; corpus %d (+%d novel), %d violating probes\n",
			r.Probes, r.Generations, r.CorpusSize, r.NewCoverage, r.ViolationCount)
		fmt.Printf("  messages %d..%d, rounds %d..%d\n",
			r.Messages.Min, r.Messages.Max, r.RoundsHist.Min, r.RoundsHist.Max)
		engineWall(r.Wall, r.WallMS, r.ProbesPerSec, r.Workers)
		f, err := job.Fuzz.Fuzzer()
		if err != nil {
			return err
		}
		if r.Broken() {
			fmt.Printf("VERDICT: first violation at probe %d of %d\n", r.FirstViolationProbe, r.Probes)
		}
		return renderVerdicts(r.Violations, f.ShrinkOptions(), false)
	default:
		renderGrid(rep.Grid)
		return nil
	}
}

// renderVerdicts prints one verdict per recorded violation (a broken
// report records at least one) and re-validates each certificate
// independently of the engine that found it; timeline also draws the
// first shrunk counterexample.
func renderVerdicts(vs []*adversary.Violation, opts adversary.ShrinkOptions, timeline bool) error {
	if len(vs) == 0 {
		fmt.Println("VERDICT: no violation — the protocol survived every probe")
		return nil
	}
	for _, v := range vs {
		fmt.Printf("VERDICT: %v\n", v)
		if v.Plan != nil {
			fmt.Printf("  found plan: %v\n", v.Plan)
		}
		if v.Shrunk != nil {
			fmt.Printf("  shrunk: %v\n", v.Shrunk)
		}
		if err := adversary.Recheck(v, opts); err != nil {
			return fmt.Errorf("certificate failed independent recheck: %w", err)
		}
		fmt.Println("  certificate independently re-validated: execution guarantees, fault budget, machine conformance all hold")
	}
	if sh := vs[0].Shrunk; timeline && sh != nil {
		// Recheck above replayed this certificate; the timeline needs the
		// trace itself, at the size and horizon the shrinker validated.
		target := opts.Target
		target.N, target.Horizon = sh.N, sh.Horizon
		var err error
		if target.Factory, target.Rounds, err = opts.New(sh.N, opts.T); err == nil {
			env := target.Env()
			if e, _, rerr := target.Replay(env, sh.Plan.Plan(env), sh.Proposals); rerr == nil {
				fmt.Println("\nminimal counterexample timeline:")
				fmt.Print(viz.Timeline(e, viz.Options{MaxRounds: 12}))
			}
		}
	}
	return nil
}

// parseSizes parses a comma-separated list of N:T grid points.
func parseSizes(s string) ([]cmatrix.Size, error) {
	var out []cmatrix.Size
	for _, part := range strings.Split(s, ",") {
		ns, ts, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("size %q is not N:T", part)
		}
		n, errN := strconv.Atoi(ns)
		t, errT := strconv.Atoi(ts)
		if errN != nil || errT != nil {
			return nil, fmt.Errorf("size %q is not N:T", part)
		}
		out = append(out, cmatrix.Size{N: n, T: t})
	}
	return out, nil
}

// renderGrid draws the grid as one table per size: rows are protocols,
// columns are strategies, cells show the violating-seed count (· = clean,
// - = skipped by the resilience condition).
func renderGrid(g *cmatrix.Grid) {
	fmt.Printf("matrix: %d protocols × %d strategies × %d sizes, seeds [%d,%d): %d cells (%d skipped), %d probes, %d violating cells\n",
		len(g.Protocols), len(g.Strategies), len(g.Sizes), g.Seeds.From, g.Seeds.To,
		len(g.Cells), g.SkippedCells, g.Probes, g.ViolatingCells)
	engineWall(g.Wall, g.WallMS, g.ProbesPerSec, g.Workers)
	fmt.Println("\nstrategies:")
	for i, s := range g.Strategies {
		fmt.Printf("  [%c] %s\n", 'A'+i, s)
	}
	w := len("protocol")
	for _, p := range g.Protocols {
		if len(p) > w {
			w = len(p)
		}
	}
	cellAt := func(pi, si, zi int) *cmatrix.Cell {
		return &g.Cells[(pi*len(g.Strategies)+si)*len(g.Sizes)+zi]
	}
	for zi, size := range g.Sizes {
		fmt.Printf("\nn=%d t=%d (· clean, - skipped, k = violating seeds)\n", size.N, size.T)
		fmt.Printf("  %-*s", w, "protocol")
		for si := range g.Strategies {
			fmt.Printf(" %3c", 'A'+si)
		}
		fmt.Println()
		for pi, p := range g.Protocols {
			fmt.Printf("  %-*s", w, p)
			for si := range g.Strategies {
				c := cellAt(pi, si, zi)
				switch {
				case c.Skipped:
					fmt.Printf(" %3s", "-")
				case c.ViolationCount == 0:
					fmt.Printf(" %3s", "·")
				default:
					fmt.Printf(" %3d", c.ViolationCount)
				}
			}
			fmt.Println()
		}
	}
}

func problemByName(name string, n, t int) (validity.Problem, error) {
	switch name {
	case "weak":
		return validity.Weak(n, t), nil
	case "strong":
		return validity.Strong(n, t), nil
	case "broadcast":
		return validity.Broadcast(n, t, 0), nil
	case "correct-source":
		return validity.CorrectSource(n, t), nil
	case "interactive":
		return validity.Interactive(n, t), nil
	case "constant":
		return validity.Constant(n, t, msg.One), nil
	default:
		return validity.Problem{}, fmt.Errorf("unknown problem %q", name)
	}
}

func runSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	name := fs.String("problem", "strong", "weak|strong|broadcast|correct-source|interactive|constant")
	n := fs.Int("n", 5, "system size (<= 8 for exact checking)")
	t := fs.Int("t", 2, "fault budget")
	auth := fs.Bool("auth", true, "authenticated setting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := problemByName(*name, *n, *t)
	if err != nil {
		return err
	}
	verdict := p.Solve()
	fmt.Printf("problem %s, n=%d t=%d\n", p.Name, *n, *t)
	fmt.Printf("  trivial: %v\n  containment condition: %v\n  authenticated-solvable: %v\n  unauthenticated-solvable: %v\n",
		verdict.Trivial, verdict.CC, verdict.Authenticated, verdict.Unauthenticated)
	if verdict.CCWitness != nil {
		fmt.Printf("  CC witness: %v\n", verdict.CCWitness)
	}
	var d *solve.Derived
	if *auth {
		d, err = solve.Authenticated(p, sig.NewIdeal("baexp"))
	} else {
		d, err = solve.Unauthenticated(p)
	}
	if err != nil {
		fmt.Printf("  derivation: refused (%v)\n", err)
		return nil
	}
	fmt.Printf("  derivation: %s, decides in %d rounds\n", d.Mode, d.Rounds)
	checked := 0
	for _, c := range p.FullConfigs() {
		if err := solve.Check(p, d, c, nil); err != nil {
			return fmt.Errorf("derived protocol failed on %v: %w", c, err)
		}
		checked++
	}
	fmt.Printf("  checked on %d fully-correct input configurations: all decisions admissible\n", checked)
	return nil
}

func runLive(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	protoName := fs.String("proto", "phase-king", "cataloged protocol to run (see `baexp hunt -list`)")
	n := fs.Int("n", 5, "system size")
	t := fs.Int("t", 1, "fault budget")
	over := fs.String("transport", "mem", "mem|tcp")
	propose := fs.String("propose", "", "comma-separated 0/1 proposals (default: alternating)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := catalog.Get(*protoName)
	if err != nil {
		return err
	}
	params := catalog.DefaultParams(*n, *t)
	factory, rounds, err := spec.Build(params)
	if err != nil {
		return err
	}

	proposals := make([]msg.Value, *n)
	if *propose == "" {
		for i := range proposals {
			proposals[i] = msg.Bit(i % 2)
		}
	} else {
		parts := strings.Split(*propose, ",")
		if len(parts) != *n {
			return fmt.Errorf("need %d proposals, got %d", *n, len(parts))
		}
		for i, p := range parts {
			proposals[i] = msg.Value(strings.TrimSpace(p))
		}
	}

	var eps []transport.Endpoint
	switch *over {
	case "mem":
		eps = memnet.New(*n, nil).Endpoints()
	case "tcp":
		mesh, err := tcpnet.New(*n)
		if err != nil {
			return err
		}
		defer mesh.Close()
		eps = mesh.Endpoints()
	default:
		return fmt.Errorf("unknown transport %q", *over)
	}

	cluster := transport.Cluster{N: *n, Endpoints: eps, Factory: factory, Proposals: proposals, Rounds: rounds}
	results, err := cluster.Run()
	if err != nil {
		return err
	}
	total := 0
	for _, r := range results {
		fmt.Printf("  %s proposed %s decided %s (sent %d protocol messages)\n",
			r.ID, proposals[r.ID], r.Decision, r.Sent)
		total += r.Sent
	}
	d, err := transport.CommonDecision(results, proc.Universe(*n))
	if err != nil {
		return fmt.Errorf("agreement check: %w", err)
	}
	fmt.Printf("decision: %s over %s in %d rounds, %d messages total (t²/32 floor = %d)\n",
		d, *over, rounds, total, lowerbound.Floor(*t))
	if spec.Decode != nil {
		decoded, derr := spec.Decode(d)
		if derr != nil {
			return fmt.Errorf("decision %q does not decode: %w", d, derr)
		}
		fmt.Printf("decoded: %s\n", decoded)
	}
	return nil
}
