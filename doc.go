// Package expensive is an executable reproduction of "All Byzantine
// Agreement Problems are Expensive" (Civit, Gilbert, Guerraoui, Komatovic,
// Paramonov, Vidigueira; PODC 2024, arXiv:2311.08060).
//
// The paper proves that every non-trivial Byzantine agreement problem
// requires Ω(t²) exchanged messages in the worst case, even in synchrony
// and even against mere omission faults, and characterizes exactly which
// agreement problems are solvable at all (the containment condition).
// This library turns each of those results into running code:
//
//   - A deterministic synchronous simulator recording the full Appendix-A
//     trace model (fragments, behaviors, executions) with Byzantine and
//     omission adversaries. See RunProtocol.
//   - The lower-bound machinery of §3 — isolation, swap_omission, merge —
//     packaged as a falsifier: hand it any weak consensus protocol and it
//     either constructs a machine-checked counterexample execution or
//     certifies that the protocol paid the quadratic price. See
//     FalsifyWeakConsensus.
//   - The validity-property formalism of §4/§5 with exact finite-domain
//     checkers for triviality and the containment condition, and automatic
//     protocol derivation (Algorithm 2 over interactive consistency) for
//     every solvable problem. See SolveAuthenticated and SolveUnauthenticated.
//   - The classical matching protocols: Dolev-Strong broadcast,
//     authenticated and EIG interactive consistency, Phase-King, plus the
//     zero-message reductions of Algorithms 1 and 2 — all first-class
//     values in the protocol catalog. See Protocols and LookupProtocol.
//   - Live deployment substrates: an in-memory goroutine mesh and a TCP
//     loopback mesh running the same machines over real channels. See
//     NewMemMesh and NewTCPMesh.
//
// # The experiment engine
//
// The experiments E1–E12 regenerate every table and figure of the paper's
// argument. Each one is registered by ID, with its recorded default
// parameters, in the parallel experiment engine
// (internal/experiments/runner): a worker-pool executor that fans out an
// experiment's *independent* simulation probes — per-candidate falsifier
// sweeps, (n, t) grid points, Lemma 4 interpolation families — across
// runtime.NumCPU() workers while keeping each probe a single-threaded,
// deterministic sim.Run. Probe analysis is sequential in construction
// order, so a registered experiment produces byte-identical tables at
// every parallelism level (this is tested).
//
//   - RunExperiment runs one experiment with default parallelism.
//   - RunExperiments runs many, returning JSON-serializable tables plus
//     wall-clock and probe-count statistics per experiment.
//   - ListExperiments enumerates the registry.
//
// The same engine backs the CLI:
//
//	baexp exp                     # run all experiments, NumCPU workers
//	baexp exp -parallel 1 E1      # force the serial path
//	baexp exp -json E6 E9         # structured results for tooling
//	baexp exp -list               # show the registry
//	baexp falsify -parallel 8 ... # parallel probes in the falsifier
//
// Adding a new experiment is one Register call at package init (see
// internal/experiments/register.go for the canonical examples):
//
//	runner.Register(runner.Experiment{
//	    ID:     "E13",
//	    Title:  "my new experiment",
//	    Params: "n=10 t=3",
//	    Run: func(o runner.Options) (*runner.Table, error) {
//	        return E13(10, 3, o) // fan out independent probes via runner.Map
//	    },
//	})
//
// The experiment function receives the engine options and uses runner.Map
// (deterministic index-ordered fan-out) or runner.Prefetch (speculative
// probe computation with early-exit consumption) for its independent
// units; everything it returns must depend only on its inputs so tables
// stay reproducible.
//
// # Adversary hunting
//
// The adversary subsystem (internal/adversary) generalizes the paper's
// hand-built attacks into a reusable layer: a library of composable,
// seed-deterministic attack strategies, a campaign engine that fans seed
// ranges out over the worker pool, and a shrinker that minimizes every
// found violation into a machine-checkable counterexample.
//
// A quickstart — rediscover and minimize the E10 attack that splits the
// crash-tolerant FloodSet under omission faults:
//
//	factory, rounds := expensive.NewFloodSet(8, 2)
//	c := expensive.NewCampaign("floodset", factory, rounds, 8, 2,
//	    expensive.StrategyTargetedWithhold(), expensive.SeedRange{From: 0, To: 64})
//	c.Validity = expensive.CheckWeakValidity
//	c.Shrink = true
//	report, _ := c.Run()          // finds the agreement split
//	v := report.Violations[0]     // v.Shrunk is the minimal fault plan
//
// Strategies cover random and targeted send/receive omission
// (StrategyRandomOmission, StrategyTargetedWithhold), silent crashes,
// Definition 1 group isolation, and Byzantine machines — chatterers,
// equivocators, and two-faced honest twins (StrategyChaos,
// StrategyEquivocate, StrategyTwoFaced) — plus combinators:
// StrategyUnion splits the fault budget between two attacks,
// StrategyWindowed gates omissions to a round interval, StrategyBiased
// attenuates them per message. Everything derives from the probe's seed,
// so campaigns replay bit-for-bit and reports are byte-identical at every
// parallelism level (tested, like the experiment tables).
//
// The randomness itself is a splitmix64 sub-stream per (seed, salt),
// keyed by SubSeed — FNV-1a of "<seed>|<salt>" — so the choices of one
// probe never share a stream, and a stream is one word of state that
// costs nothing to open. The per-message decision of the random-omission
// family is an integer mix of (seed, sender, receiver, round): it runs
// for every message that touches a faulty process and allocates nothing.
// adversary.StreamVersion (2) names this seed → plan mapping and is
// written as stream_version into campaign, fuzz and matrix reports, fuzz
// corpora and dist checkpoints; a corpus or checkpoint of another version
// is refused on resume (a missing field reads as 1), and the dist wire
// version moves with it so mixed binaries fail at hello. Bump it whenever
// the same (seed, salt) would yield a different plan, proposal vector or
// mutation; the goldens under testdata/ fail if that is forgotten.
//
// Every probe is checked for Termination, Agreement, and a pluggable
// validity property (CheckWeakValidity, CheckStrongValidity,
// CheckSenderValidity, or a Problem's own admissibility via
// NewProblemCampaign); every violating probe additionally passes the full
// evidence pipeline — the five Appendix A.1.6 execution guarantees,
// honest-machine conformance (sim.Conforms), and extraction of an
// explicit, JSON-serializable fault plan. Shrink reduces violations —
// fewer corrupted processes, fewer omitted messages, smaller n — and
// RecheckViolation re-validates the final certificate from scratch,
// exactly like the falsifier's CheckViolation. (Set Campaign.RecordFull
// to run the evidence pipeline on every probe, violating or not — see
// the recording tiers below.)
//
// The same engine backs the CLI:
//
//	baexp hunt                                  # targeted withholding vs FloodSet
//	baexp hunt -proto phase-king -strategy storm -n 9 -t 2
//	baexp hunt -seeds 0:512 -parallel 8 -json   # deterministic JSON report
//	baexp hunt -list                            # protocols and strategies
//
// # Adaptive fuzzing
//
// Campaigns sweep fresh seeds blindly; the coverage-guided fuzzer
// (internal/adversary/fuzz, NewFuzzer/NewFuzzerFor, `baexp fuzz`) hunts
// adaptively. It grows a corpus of explicit fault plans and mutates them
// — adding single omissions and round-interval streaks, dropping,
// retargeting and round-shifting them, promoting omission-faulty
// processes to Byzantine machines, crossing corpus parents over,
// re-seeding proposal vectors — and keeps every candidate whose lean
// RecordDecisions execution hashes to a coverage signature (per-round
// sent/omitted/received count vectors plus the decision pattern) never
// seen before. Novel probes enter a persisted, replayable JSON corpus
// (FuzzCorpus.Save / LoadFuzzCorpus; each entry records plan, proposals,
// coverage hash and mutation provenance), and violating probes flow into
// the campaign evidence pipeline unchanged: deterministic RecordFull
// replay, Appendix A.1.6 validation, machine conformance, plan
// extraction, shrinking, RecheckViolation.
//
// The determinism guarantee carries over: scheduling is
// generation-batched — candidates are derived sequentially from the
// corpus as it stood at the start of the generation, probed in parallel
// on the runner pool, and folded back in slot order — so the FuzzReport
// and the corpus are byte-identical at every parallelism level, exactly
// like campaign reports and matrix grids. FuzzReport.FirstViolationProbe
// (and the matching CampaignReport field) records probes-to-first-
// violation; scripts/bench.sh compares the two on FloodSet at t = n-1,
// where blind sweeping essentially never finds the E10 split and the
// fuzzer usually reaches it within a few thousand probes (the exact index
// belongs to the stream version and is pinned under testdata/). A corpus
// records the stream version it was grown under and is refused by a
// binary that draws another:
//
//	f, _ := expensive.NewFuzzerFor(proto, params,
//	    expensive.StrategyRandomSendOmission(40), 2048)
//	f.Shrink = true
//	report, _ := f.Run()          // report.Violations[0].Shrunk, corpus in f.Corpus
//
//	baexp fuzz -n 4 -t 3 -budget 2048 -stop     # the same hunt from the CLI
//	baexp fuzz -corpus hunt.json -json          # persist + resume the corpus
//
// # The protocol catalog
//
// The paper's theorems quantify over every Byzantine agreement protocol;
// the catalog (internal/catalog) is the matching abstraction. A Protocol
// is a first-class spec — ID, title, model (authenticated /
// unauthenticated / crash), resilience condition as predicate and
// human-readable string, round bound, builder, optional decision decoder,
// and its validity property — and every protocol package self-registers
// at init, so listings, sweeps and lookups all derive from one registry:
//
//	p, _ := expensive.LookupProtocol("phase-king")
//	p.SupportedAt(5, 1)                     // true: n > 4t
//	factory, rounds, err := p.Build(expensive.DefaultProtocolParams(5, 1))
//
// Build validates parameters centrally: t >= n, an (n, t) outside the
// resilience condition, or a missing scheme/sender/default yields a typed
// error (ErrUnsupported, ErrBadParams, *ProtocolParamsError) instead of a
// protocol that silently misbehaves. Campaigns, replicated logs and live
// clusters accept catalog handles directly (NewCampaignFor,
// NewReplicatedLogFor, RunClusterFor), with the validity property and the
// shrinker's rebuild hook supplied by the spec.
//
// Migration note: the legacy New* constructors (NewPhaseKing,
// NewFloodSet, NewDolevStrongBroadcast, ...) are now thin shims over the
// catalog. Their signatures and semantics are unchanged — they still
// construct without resilience enforcement — but new code should prefer
// LookupProtocol + Build for the checked path.
//
// On top of the registry sits the matrix engine (catalog/matrix,
// expensive.Matrix): the full protocol × strategy × (n, t) cross-product
// fanned over the runner worker pool, skipping unsupported cells by
// resilience predicate and reporting a deterministic JSON grid that is
// byte-identical at every parallelism level:
//
//	m := expensive.NewMatrix(expensive.SeedRange{From: 0, To: 64})
//	grid, _ := m.Run()   // every protocol × every strategy × 4:1, 5:1, 8:2
//
//	baexp matrix                       # the same sweep from the CLI
//	baexp matrix -json -parallel 8     # deterministic grid for tooling
//	baexp matrix -list                 # registry + strategy library
//
// # Distributed campaigns
//
// One process tops out at NumCPU probes in flight; the dist subsystem
// (internal/dist, NewDistCampaign/NewDistWorker, `baexp coord` /
// `baexp worker`) shards a hunt, fuzz or matrix campaign across OS
// processes over a length-prefixed JSON TCP protocol. The coordinator
// cuts the job into work units whose shape depends only on the job —
// never on the worker population — and folds results back in unit
// order, so the merged report (and the fuzz corpus) is byte-identical
// to the single-process run at any worker count, join order or death
// schedule. Progress optionally checkpoints to JSON after every unit;
// a restarted coordinator re-issues only the incomplete units and the
// final report is byte-identical to an uninterrupted run (a checkpoint
// of another job, or of another stream version, is refused). Workers
// heartbeat; a silent worker's in-flight unit is reassigned:
//
//	job := &expensive.DistJob{Kind: "hunt", Hunt: &expensive.DistHuntJob{
//	    Protocol: "floodset", Strategy: "targeted-withhold",
//	    N: 8, T: 2, Seeds: expensive.SeedRange{From: 0, To: 4096},
//	}}
//	c := expensive.NewDistCampaign(job)
//	c.LocalWorkers = 4               // in-process workers over loopback TCP
//	report, _ := c.Run()             // report.Hunt byte-identical to a local hunt
//
//	baexp coord -workers 4 -checkpoint cp.json   # the same from the CLI
//	baexp worker -coord host:9000                # join from another machine
//
// # Chaos and soak testing
//
// The chaos layer makes hostility deterministic so robustness is a test
// assertion. A ChaosPlan (internal/transport/chaosnet, NewChaosPlan /
// ChaosProfiles / WrapChaos) freezes composable fault rules — drop,
// delay, duplicate, reorder, corrupt, cut, windowed partitions — where
// every fault is a pure function of (seed, link, seq); it wraps any
// transport mesh and any worker's coordinator link (`baexp worker
// -chaos`). A ChurnHarness (internal/dist/churn, ParseChurnSchedule)
// SIGKILLs and respawns worker processes on a schedule. The hardened
// coordinator reassigns a live straggler's unit past its deadline,
// quarantines a unit that exhausts its retry budget instead of hanging
// (DistReport.Quarantined), and drains on demand — SIGTERM to `baexp
// coord` checkpoints in-flight progress and exits resumable
// (ErrCoordinatorDrained). `baexp soak` runs a campaign under churn and
// chaos and demands byte-identity with the serial oracle (DistSerial);
// `baexp soak -kind smr` drives a LiveReplicatedLog — replicated-log
// slots over a chaosnet-wrapped mesh — with online safety and liveness
// monitors (NewLiveReplicatedLog, SafetyDivergence).
//
// # Performance: recording tiers
//
// Every result in this library is bought with probe volume — the
// falsifier families, hunt campaigns and matrix sweeps run sim.Run
// millions of rounds — so the engine records at two tiers
// (RunConfig.Recording):
//
//   - RecordFull (default): the complete Appendix A.1.6 trace, four
//     message slices per process per round. Required by everything that
//     reads message identities: ValidateExecution, sim.Conforms, the
//     omission machinery (swap, merge, isolation checks), Shrink and
//     RecheckViolation.
//   - RecordDecisions: per-process decisions and per-round message
//     counts, no message slices, produced by a pooled, allocation-free
//     round loop. Enough for Termination/Agreement/validity verdicts,
//     round counts and the paper's message-complexity metric
//     (Execution.CorrectMessages reads the lean counts directly).
//
// The probe loops combine them CheckViolation-style: campaigns, the
// matrix and the falsifier probe at RecordDecisions, and any probe that
// violates a property — or whose analysis needs message identities (a
// Lemma 2 swap candidate, a merge input) — is deterministically re-run at
// RecordFull, where the full validation pipeline runs before the trace
// becomes evidence. The engine is deterministic, so the replay reproduces
// the lean probe exactly, and every report (CampaignReport, Grid,
// experiment tables) is byte-identical between tiers and at every
// parallelism level — enforced by TestCampaignTierEquivalence across the
// whole protocol registry. Full-trace APIs reject lean executions with a
// descriptive error rather than misreading absent slices as silence.
//
// scripts/bench.sh records the perf trajectory: it runs the tracked
// benchmark set (hunt campaign throughput, matrix sweeps, the falsifier,
// raw engine rounds) and emits a committed BENCH_<date>.json of ns/op,
// allocs/op and probes/s.
//
// # Observability
//
// The probe engines carry a flight recorder (internal/obs): attach a
// Telemetry via WithTelemetry to the Ctx of a Campaign, Fuzzer, Matrix,
// ExperimentOptions or falsifier Options and the run counts probes into
// atomic counters, times them into log-bucketed histograms, and emits
// structured JSONL trace events (campaign-start, violation-found,
// shrink-step, generation, matrix-cell) into an optional TelemetrySink.
// Telemetry is a strict side channel — it reads counters and the clock
// but feeds nothing back — so every report and corpus stays
// byte-identical with telemetry on or off, and with no recorder attached
// (the default) each instrument call on the hot path costs one nil
// pointer check and zero allocations (pinned by test and benchmark). The
// baexp subcommands surface the recorder as -progress (live stderr lines
// with probes/s and ETA plus a final summary block), -metrics-out (JSONL
// events + metrics snapshot) and -pprof (net/http/pprof, expvar and a
// /metrics endpoint).
//
// # Static analysis
//
// The contracts above — byte-identical reports at every parallelism
// level and recording tier, lean probes never touching full-trace APIs,
// every protocol discoverable through the registry — are enforced
// mechanically, not just by tests. The balint suite (internal/analysis,
// cmd/balint, `baexp lint`) runs eight analyzers over the whole module:
// maporder (no map iteration on report-encoding paths unless the keys
// are collected and sorted), wallclock (no time.Now/time.Since in probe
// or fold code outside the runner.Stopwatch wrappers and the sanctioned
// internal/obs clock-owning package), globalrand (no
// process-global math/rand), leantier (no full-trace-only API reachable
// from a RecordDecisions probe loop unless guarded on the recording
// tier), and regcheck (a package defining a catalog.Spec must Register
// it at init and be linked into internal/catalog/all).
//
// Three more ride on a forward taint engine (internal/analysis/taint —
// intraprocedural fixpoint plus one-level interprocedural summaries
// over the shared call graph) and on call-graph v2's go-statement and
// channel-operation sites: obstaint (telemetry- and stopwatch-derived
// values must not reach an encoded report field or a json.Marshal
// argument; matrix.Grid.Timing is the sanctioned -timing sink and
// runner.Result.wall_ms carries an explicit allow), errcmp (sentinel
// errors classify via errors.Is, never ==/switch, and fmt.Errorf wraps
// them with %w so classification survives wrapping), and goleak (every
// goroutine launched in dist, transport, smr, churn and obs must be
// provably stoppable — unbounded loops need a done/ctx receive or a
// Recv/Accept-and-return shape, and unseen bodies need a documented
// lifetime). Deliberate exceptions carry a `//balint:allow <analyzer>
// <reason>` directive — the reason is mandatory, and scripts/lint.sh
// (run by CI on every push) fails on any unsuppressed finding; `balint
// -json` emits the full findings array, suppressed ones marked, which
// CI uploads as a build artifact.
package expensive
