package main

// The distributed-campaign frontends: `baexp coord` owns a campaign and
// serves work units over TCP; `baexp worker` connects to a coordinator
// and probes. `coord -workers N` forks N worker processes of this very
// binary against its own listener, so the one-machine convenience mode
// exercises the identical wire path a cluster does. Both parse the job
// flags `baexp hunt/fuzz/matrix` parse (addJobFlags, one defaults table)
// and print through the same emit, so `coord -kind K` and `baexp K` with
// the same flags print the same report at any worker count.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	cmatrix "expensive/internal/catalog/matrix"
	"expensive/internal/dist"
	"expensive/internal/transport/chaosnet"
)

func runCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ContinueOnError)
	kind := fs.String("kind", "hunt", "campaign kind: hunt|fuzz|matrix; unset job flags take the kind's defaults (hunt's are shown; baexp fuzz -h and baexp matrix -h show theirs)")
	addr := fs.String("addr", "127.0.0.1:0", "TCP listen address for workers")
	workers := fs.Int("workers", 0, "fork this many worker processes of this binary against the coordinator")
	inproc := fs.Int("inproc", 0, "run this many in-process workers (loopback TCP, same wire path)")
	parallel := fs.Int("parallel", 0, "probe worker count inside each local/forked worker (0 = NumCPU)")
	checkpoint := fs.String("checkpoint", "", "checkpoint file: progress persists there and a matching checkpoint resumes")
	every := fs.Int("every", 1, "completed units between checkpoint saves")
	hb := fs.Duration("hb", 0, "heartbeat timeout before a silent worker is declared dead (0 = 10s)")
	unitDeadline := fs.Duration("unit-deadline", 0, "per-unit execution deadline before a live straggler's unit is reassigned (0 = off)")
	retryBudget := fs.Int("retry-budget", 0, "reassignments per unit before it is quarantined (0 = default 3, negative = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the deterministic JSON report (identical to the single-process subcommand's)")
	corpusPath := fs.String("corpus", "", "corpus file: loaded if present, saved after the run (fuzz)")

	jf := addJobFlags(fs, "hunt")
	tf := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	applyJobDefaults(fs, *kind)
	job, err := buildJob(*kind, jf)
	if err != nil {
		return err
	}

	tel, err := tf.open()
	if err != nil {
		return err
	}
	defer tel.finish() //nolint:errcheck // surfaced by the explicit call below

	c := &dist.Coordinator{
		Job:               job,
		Addr:              *addr,
		CheckpointPath:    *checkpoint,
		CheckpointEvery:   *every,
		HeartbeatTimeout:  *hb,
		UnitDeadline:      *unitDeadline,
		RetryBudget:       *retryBudget,
		LocalWorkers:      *inproc,
		WorkerParallelism: *parallel,
		Ctx:               tel.ctx,
	}
	if c.Corpus, err = loadCorpus(*corpusPath); err != nil {
		return err
	}
	if err := c.Start(); err != nil {
		return err
	}
	procs, err := forkWorkers(*workers, c.ListenAddr(), *parallel)
	if err != nil {
		return err
	}

	// SIGTERM means "stop cleanly, keep the progress": fold whatever is
	// in flight, persist the checkpoint, and exit 0 so a supervisor's
	// graceful shutdown (or a soak harness's kill) is resumable with the
	// same -checkpoint file.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM)
	defer signal.Stop(sigC)
	go func() {
		if _, ok := <-sigC; ok {
			fmt.Fprintln(os.Stderr, "baexp coord: SIGTERM — draining: folding in-flight units, checkpointing")
			c.Drain()
		}
	}()

	report, runErr := c.Run()
	// Forked workers exit on the coordinator's done message; reap them
	// before reporting so their stderr lands ahead of the verdict.
	for _, p := range procs {
		if werr := p.Wait(); werr != nil && runErr == nil {
			fmt.Fprintln(os.Stderr, "baexp coord: worker exited:", werr)
		}
	}
	if errors.Is(runErr, dist.ErrDrained) {
		if *checkpoint == "" {
			return fmt.Errorf("%w — but no -checkpoint was set, so the folded progress was discarded", dist.ErrDrained)
		}
		fmt.Fprintf(os.Stderr, "baexp coord: drained; rerun with -checkpoint %s to resume\n", *checkpoint)
		return tel.finish()
	}
	if runErr != nil {
		return runErr
	}
	if err := saveCorpus(*corpusPath, report.Corpus, tel); err != nil {
		return err
	}
	if !*jsonOut {
		resumed := ""
		if report.Resumed {
			resumed = ", resumed from checkpoint"
		}
		// How many workers had joined before the last unit folded is a
		// fact of the schedule, so it rides the wall-clock line.
		fmt.Printf("coord %s: %d units (%d reassigned)%s\n",
			report.Kind, report.Units, report.Reassigned, resumed)
		fmt.Printf("  [%.1f ms wall, %d workers]\n", float64(report.Wall)/float64(time.Millisecond), report.Workers)
		if len(report.Quarantined) > 0 {
			fmt.Printf("  QUARANTINED units %v: retry budget exhausted, results below exclude them\n", report.Quarantined)
		}
	}
	if err := emit(report, job, *jsonOut, false); err != nil {
		return err
	}
	return tel.finish()
}

// jobFlags holds the campaign-shape flags: what a dist.Job is built from.
type jobFlags struct {
	proto, strategy, seeds, sizes string
	n, t, units, keep, bias       int
	budget, genSize, batch        int
	fuzzSeed                      int64
	shrink, stop                  bool
}

// jobDefaults is the one table of per-kind defaults, for the job flags
// whose default depends on the campaign kind; the rest have one default
// for every kind, registered in addJobFlags. soak's smr kind reads only
// -n and -t, and needs a size phase-king accepts (n > 4t, which hunt's
// 8:2 is not); where its column is empty it takes the hunt column.
var jobDefaults = []struct{ flag, hunt, fuzz, matrix, smr string }{
	{"proto", "floodset", "floodset", "", ""},                         // matrix: empty = every registered protocol
	{"strategy", "targeted-withhold", "random-send-omission", "", ""}, // matrix: empty = the full library
	{"n", "8", "4", "0", "5"},
	{"t", "2", "3", "0", "1"},
	{"seeds", "0:64", "0:64", "0:16", ""},
	{"keep", "3", "3", "1", ""},
	{"shrink", "true", "true", "false", ""},
}

// addJobFlags registers the campaign-shape flags — the one set `hunt`,
// `fuzz`, `matrix`, `coord` and `soak` all parse — on fs, with kind's
// defaults, and returns where the parsed values land. coord and soak,
// whose kind is itself a flag, register under its default and call
// applyJobDefaults again once they know it.
func addJobFlags(fs *flag.FlagSet, kind string) *jobFlags {
	f := &jobFlags{}
	fs.StringVar(&f.proto, "proto", "", "protocol ID (hunt/fuzz), or comma-separated IDs (matrix; empty = every registered protocol)")
	fs.StringVar(&f.strategy, "strategy", "", "strategy ID (hunt; fuzz: the seed strategy of generation 0), or comma-separated IDs (matrix; empty = the full library)")
	fs.IntVar(&f.n, "n", 0, "system size (hunt/fuzz)")
	fs.IntVar(&f.t, "t", 0, "fault budget (hunt/fuzz)")
	fs.StringVar(&f.seeds, "seeds", "", "half-open seed range FROM:TO (hunt; per-cell for matrix)")
	fs.IntVar(&f.units, "units", 0, "hunt work units to cut the seed range into (0 = default 16)")
	fs.BoolVar(&f.shrink, "shrink", false, "minimize found violations (coord: once, on the merged report)")
	fs.IntVar(&f.keep, "keep", 0, "record at most this many violations (matrix: per cell; hunt/fuzz: 0 = all)")
	fs.IntVar(&f.bias, "bias", cmatrix.DefaultBias, "omission percentage for the random strategies")
	fs.IntVar(&f.budget, "budget", 2048, "total candidate probes (fuzz)")
	fs.IntVar(&f.genSize, "gen", 0, "candidates per mutation generation (fuzz; 0 = default 64)")
	fs.Int64Var(&f.fuzzSeed, "seed", 0, "master seed for the deterministic search (fuzz)")
	fs.IntVar(&f.batch, "batch", 0, "probes per fuzz work unit (0 = default 16)")
	fs.BoolVar(&f.stop, "stop", false, "stop after the first generation that found a violation (fuzz)")
	fs.StringVar(&f.sizes, "sizes", "", "comma-separated N:T grid points (matrix; empty = 4:1,5:1,8:2)")
	applyJobDefaults(fs, kind)
	return f
}

// applyJobDefaults gives every jobDefaults flag the command line has not
// set its default for kind, and makes -h print it.
func applyJobDefaults(fs *flag.FlagSet, kind string) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, d := range jobDefaults {
		if set[d.flag] {
			continue
		}
		v := d.hunt
		switch kind {
		case "fuzz":
			v = d.fuzz
		case "matrix":
			v = d.matrix
		case "smr":
			if d.smr != "" {
				v = d.smr
			}
		}
		f := fs.Lookup(d.flag)
		if err := f.Value.Set(v); err != nil {
			panic(fmt.Sprintf("jobDefaults: -%s=%q: %v", d.flag, v, err))
		}
		f.DefValue = v
	}
}

func checkBias(bias int) error {
	if bias < 0 || bias > 100 {
		return fmt.Errorf("bias must be a percentage within 0..100, got %d", bias)
	}
	return nil
}

// splitIDs parses a comma-separated ID list; empty means all.
func splitIDs(list string, all []string) []string {
	ids := strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' })
	if len(ids) == 0 {
		return all
	}
	return ids
}

// buildJob translates the job flags into the campaign description for
// one kind — the only thing any route to an engine is built from.
// Registry IDs travel as strings; workers resolve them against their own
// catalog, so coordinator and workers must run the same binary version.
func buildJob(kind string, f *jobFlags) (*dist.Job, error) {
	if err := checkBias(f.bias); err != nil {
		return nil, err
	}
	switch kind {
	case "hunt":
		seeds, err := parseSeedRange(f.seeds)
		if err != nil {
			return nil, err
		}
		return &dist.Job{Kind: "hunt", Hunt: &dist.HuntJob{
			Protocol: f.proto, Strategy: f.strategy, Bias: f.bias,
			N: f.n, T: f.t, Seeds: seeds, Units: f.units,
			Shrink: f.shrink, MaxViolations: f.keep,
		}}, nil
	case "fuzz":
		return &dist.Job{Kind: "fuzz", Fuzz: &dist.FuzzJob{
			Protocol: f.proto, SeedStrategy: f.strategy, Bias: f.bias,
			N: f.n, T: f.t, Budget: f.budget, GenSize: f.genSize,
			FuzzSeed: f.fuzzSeed, Batch: f.batch,
			Shrink: f.shrink, MaxViolations: f.keep, StopOnViolation: f.stop,
		}}, nil
	case "matrix":
		sizes := cmatrix.DefaultSizes()
		if f.sizes != "" {
			var err error
			if sizes, err = parseSizes(f.sizes); err != nil {
				return nil, err
			}
		}
		seeds, err := parseSeedRange(f.seeds)
		if err != nil {
			return nil, err
		}
		return &dist.Job{Kind: "matrix", Matrix: &dist.MatrixJob{
			Protocols:  splitIDs(f.proto, catalog.IDs()),
			Strategies: splitIDs(f.strategy, adversary.LibraryIDs()),
			Sizes:      sizes, Bias: f.bias, Seeds: seeds,
			MaxViolations: f.keep, Shrink: f.shrink,
		}}, nil
	default:
		return nil, fmt.Errorf("unknown campaign kind %q (hunt|fuzz|matrix)", kind)
	}
}

// forkWorkers launches n worker processes of this binary against addr.
func forkWorkers(n int, addr string, parallel int) ([]*exec.Cmd, error) {
	if n <= 0 {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fork workers: %w", err)
	}
	procs := make([]*exec.Cmd, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "worker",
			"-coord", addr,
			"-parallel", strconv.Itoa(parallel),
			"-name", fmt.Sprintf("proc-%d", i))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, p := range procs {
				_ = p.Process.Kill()
			}
			return nil, fmt.Errorf("fork worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}
	return procs, nil
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	coord := fs.String("coord", "", "coordinator address to connect to (required)")
	parallel := fs.Int("parallel", 0, "probe worker count (0 = NumCPU, 1 = serial)")
	name := fs.String("name", "", "worker name in coordinator telemetry (default worker-<pid>)")
	attempts := fs.Int("retries", 10, "dial attempts before giving up")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "initial dial retry backoff (doubles, capped)")
	reconnect := fs.Int("reconnect", 0, "times a lost coordinator link is re-dialed and the session resumed (0 = exit on first loss)")
	chaosProfile := fs.String("chaos", "", "chaosnet profile ID injected on the coordinator link ("+strings.Join(chaosnet.IDs(), "|")+"; empty = clean wire)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the -chaos plan (same seed = same faults)")
	chaosNode := fs.Int("chaos-node", 1, "this worker's process ID in the chaos plan's link space (coordinator is 63)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("worker needs -coord ADDRESS")
	}
	w := &dist.Worker{
		Addr:         *coord,
		Name:         *name,
		Parallelism:  *parallel,
		DialAttempts: *attempts,
		DialBackoff:  *backoff,
		Reconnect:    *reconnect,
		ChaosNode:    *chaosNode,
	}
	if *chaosProfile != "" {
		p, ok := chaosnet.ByID(*chaosProfile)
		if !ok {
			return fmt.Errorf("unknown chaos profile %q (have %s)", *chaosProfile, strings.Join(chaosnet.IDs(), ", "))
		}
		w.Chaos = p.Build(*chaosSeed, chaosnet.Env{})
	}
	return w.Run()
}
