package expensive

import (
	"context"
	"io"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // link every protocol registration
	"expensive/internal/catalog/matrix"
	"expensive/internal/crypto/sig"
	"expensive/internal/dist"
	"expensive/internal/dist/churn"
	"expensive/internal/experiments"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/obs"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/external"
	"expensive/internal/protocols/gradecast"
	"expensive/internal/protocols/reduction"
	"expensive/internal/sim"
	"expensive/internal/smr"
	"expensive/internal/solve"
	"expensive/internal/transport"
	"expensive/internal/transport/chaosnet"
	"expensive/internal/transport/memnet"
	"expensive/internal/transport/tcpnet"
	"expensive/internal/validity"
	"expensive/internal/viz"
)

// Core vocabulary. These aliases re-export the internal model types so
// that downstream users can name every value the API returns.
type (
	// Value is a protocol value (proposal or decision).
	Value = msg.Value
	// Message is a round-stamped message between two processes.
	Message = msg.Message
	// ProcessID identifies a process in Π = {0..n-1}.
	ProcessID = proc.ID
	// ProcessSet is a set of process identities.
	ProcessSet = proc.Set
	// Machine is a deterministic per-process protocol state machine.
	Machine = sim.Machine
	// Factory builds the honest machine of one process.
	Factory = sim.Factory
	// Outgoing is a message a machine emits for the next round.
	Outgoing = sim.Outgoing
	// RunConfig parameterizes a simulated run.
	RunConfig = sim.Config
	// Recording selects the trace tier of a run (RecordFull's Appendix
	// A.1.6 message slices vs RecordDecisions' decisions and counts).
	Recording = sim.Recording
	// FaultPlan is the static adversary of a simulated run.
	FaultPlan = sim.FaultPlan
	// Execution is a recorded run (at RecordFull, the Appendix A.1.6
	// object; at RecordDecisions, decisions plus per-round counts).
	Execution = sim.Execution
	// Scheme is a signature scheme (authenticated algorithms, §5.1).
	Scheme = sig.Scheme
	// Problem is a Byzantine agreement problem given by its validity
	// property over finite domains (§4.1).
	Problem = validity.Problem
	// InputConfig assigns proposals to correct processes.
	InputConfig = validity.InputConfig
	// Solvability is the Theorem 4 verdict for a problem.
	Solvability = validity.Solvability
	// Derived is a protocol synthesized from a validity property.
	Derived = solve.Derived
	// FalsifyReport is the outcome of the Theorem 2 falsifier.
	FalsifyReport = lowerbound.Report
	// Violation is a machine-checkable counterexample execution.
	Violation = lowerbound.Violation
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = experiments.Table
	// ExperimentOptions tunes the parallel experiment engine (worker count,
	// cancellation).
	ExperimentOptions = runner.Options
	// ExperimentResult couples an experiment table with wall-clock and
	// probe-count statistics.
	ExperimentResult = runner.Result
	// ExperimentInfo is the registration metadata of one experiment.
	ExperimentInfo = runner.Info
	// NodeResult is the outcome of one live (transport) node.
	NodeResult = transport.NodeResult
	// AttackStrategy is a named, seed-deterministic fault-plan generator.
	AttackStrategy = adversary.Strategy
	// AttackEnv is the probe environment strategies build plans for.
	AttackEnv = adversary.Env
	// AttackTarget is the protocol under test, embedded by Campaign, Fuzzer
	// and ShrinkOptions; it owns the evidence pipeline (Probe, Evidence,
	// Replay).
	AttackTarget = adversary.Target
	// Campaign is a seeded adversarial hunt: one strategy versus one
	// protocol over a range of seeds, every probe fully checked.
	Campaign = adversary.Campaign
	// CampaignReport is a campaign's deterministic, JSON-serializable
	// outcome (byte-identical at every parallelism level).
	CampaignReport = adversary.CampaignReport
	// CampaignViolation is a protocol failure found by a campaign probe.
	CampaignViolation = adversary.Violation
	// ExplicitFaultPlan is a materialized, replayable, shrinkable fault plan.
	ExplicitFaultPlan = adversary.ExplicitPlan
	// ShrinkResult is a minimized counterexample.
	ShrinkResult = adversary.ShrinkResult
	// ShrinkOptions parameterize Shrink and RecheckViolation.
	ShrinkOptions = adversary.ShrinkOptions
	// SeedRange is the half-open seed interval a campaign sweeps.
	SeedRange = adversary.SeedRange
	// ValidityCheck is a pluggable per-probe validity property.
	ValidityCheck = adversary.ValidityFunc
	// AgreementCheck is a pairwise decision-compatibility relation that
	// replaces strict equal-decision Agreement in campaigns (graded
	// broadcast's G2/G3).
	AgreementCheck = adversary.AgreementFunc
	// Protocol is a first-class catalog entry: identity, model, resilience
	// condition, requirements, round bound, and builder. Obtain one from
	// Protocols or LookupProtocol; construct with p.Build(params).
	Protocol = catalog.Spec
	// ProtocolParams is the uniform construction input of every cataloged
	// protocol.
	ProtocolParams = catalog.Params
	// ProtocolModel classifies a protocol's fault/authentication setting.
	ProtocolModel = catalog.Model
	// ProtocolParamsError is the typed Build validation failure (wraps
	// ErrUnsupported or ErrBadParams).
	ProtocolParamsError = catalog.ParamsError
	// NamedStrategy couples a short stable ID with an attack strategy.
	NamedStrategy = adversary.Named
	// Fuzzer is a coverage-guided adaptive hunt: plan mutation over a
	// replayable corpus, steered by a lean-tier novelty signal.
	Fuzzer = fuzz.Fuzzer
	// FuzzReport is a fuzzing run's deterministic, JSON-serializable
	// outcome (byte-identical at every parallelism level).
	FuzzReport = fuzz.Report
	// FuzzCorpus is the persisted, replayable population of a fuzzing run.
	FuzzCorpus = fuzz.Corpus
	// FuzzEntry is one corpus member: plan, proposals, coverage hash and
	// mutation provenance.
	FuzzEntry = fuzz.Entry
	// Matrix sweeps protocol × strategy × (n, t) over the worker pool.
	Matrix = matrix.Matrix
	// MatrixSize is one (n, t) grid point of a matrix sweep.
	MatrixSize = matrix.Size
	// MatrixCell is one grid entry (protocol under strategy at a size).
	MatrixCell = matrix.Cell
	// MatrixGrid is a matrix's deterministic, JSON-serializable report.
	MatrixGrid = matrix.Grid
	// DistJob is a distributed campaign definition — one hunt, fuzz or
	// matrix job, serializable to the coordinator/worker wire protocol.
	DistJob = dist.Job
	// DistHuntJob parameterizes a distributed seed campaign.
	DistHuntJob = dist.HuntJob
	// DistFuzzJob parameterizes a distributed coverage-guided hunt.
	DistFuzzJob = dist.FuzzJob
	// DistMatrixJob parameterizes a distributed registry sweep.
	DistMatrixJob = dist.MatrixJob
	// DistCoordinator shards a campaign into deterministic work units over
	// TCP workers and folds the results back byte-identically.
	DistCoordinator = dist.Coordinator
	// DistWorker connects to a coordinator and executes its work units.
	DistWorker = dist.Worker
	// DistReport is a distributed campaign's outcome: the inner engine
	// report (byte-identical to the single-process run) plus scheduling
	// statistics excluded from the JSON encoding.
	DistReport = dist.Report
	// Telemetry is the flight recorder (internal/obs): nil-safe atomic
	// counters, gauges and log-bucketed histograms, plus an optional JSONL
	// trace-event sink. The nil recorder is the off switch — every
	// instrument call on it is one pointer check and zero allocations.
	Telemetry = obs.Recorder
	// TelemetrySink is a Telemetry's JSONL trace-event sink.
	TelemetrySink = obs.Sink
	// TelemetryMetric is one serialized instrument of a Telemetry snapshot.
	TelemetryMetric = obs.Metric
)

// Protocol models.
const (
	Authenticated   = catalog.Authenticated
	Unauthenticated = catalog.Unauthenticated
	CrashOnly       = catalog.CrashOnly
)

// Typed Build failures; match with errors.Is.
var (
	// ErrUnsupported marks an (n, t) outside a protocol's resilience
	// condition.
	ErrUnsupported = catalog.ErrUnsupported
	// ErrBadParams marks structurally invalid protocol parameters.
	ErrBadParams = catalog.ErrBadParams
)

// Binary values.
const (
	Zero = msg.Zero
	One  = msg.One
)

// Bit converts 0/1 to the corresponding binary Value.
func Bit(b int) Value { return msg.Bit(b) }

// NewIdealScheme returns the idealized HMAC-backed signature oracle
// (deterministic, fast — the paper's idealized authenticated setting).
func NewIdealScheme(seed string) Scheme { return sig.NewIdeal(seed) }

// NewEd25519Scheme returns a real Ed25519 scheme with deterministic
// per-process keys for ids 0..n-1 plus extraIDs.
func NewEd25519Scheme(seed string, n int, extraIDs ...ProcessID) Scheme {
	return sig.NewEd25519(seed, n, extraIDs...)
}

// Recording tiers for RunConfig.Recording. RecordFull (the default) keeps
// the complete Appendix A.1.6 trace; RecordDecisions runs the engine's
// allocation-free lean loop recording only decisions and per-round message
// counts — the tier the probe loops (campaigns, matrix, falsifier) sweep
// at, deterministically re-running violating configurations at RecordFull
// for evidence. Full-trace APIs (ValidateExecution, Conforms, swap/merge,
// Shrink) reject lean executions.
const (
	RecordFull      = sim.RecordFull
	RecordDecisions = sim.RecordDecisions
)

// RunProtocol executes a protocol under a fault plan in the synchronous
// simulator and returns the recorded execution.
func RunProtocol(cfg RunConfig, factory Factory, plan FaultPlan) (*Execution, error) {
	return sim.Run(cfg, factory, plan)
}

// NoFaults is the fully-correct fault plan.
func NoFaults() FaultPlan { return sim.NoFaults{} }

// ValidateExecution checks the five Appendix A.1.6 execution guarantees.
func ValidateExecution(e *Execution) error { return omission.Validate(e) }

// The protocol catalog. Every protocol in the library self-registers as
// an introspectable Protocol value carrying its model, resilience
// condition, round bound, builder and validity property; the functions
// below are the query surface, and everything downstream — campaigns,
// matrix sweeps, replicated logs, live clusters — accepts catalog
// handles.

// Protocols returns every registered protocol in ID order.
func Protocols() []Protocol { return catalog.Protocols() }

// LookupProtocol returns the protocol registered under id
// ("dolev-strong", "floodset", "phase-king", ...).
func LookupProtocol(id string) (Protocol, bool) { return catalog.Lookup(id) }

// ProtocolIDs lists the registered protocol IDs in sorted order.
func ProtocolIDs() []string { return catalog.IDs() }

// DefaultProtocolParams returns the canonical parameters at (n, t):
// sender 0, the idealized deterministic scheme, default decision ⊥.
func DefaultProtocolParams(n, t int) ProtocolParams { return catalog.DefaultParams(n, t) }

// Protocol constructors — the matching upper bounds. These are thin,
// legacy-lenient shims over the catalog: they keep their historical
// signatures (no error return, no resilience enforcement) for existing
// callers. New code should prefer LookupProtocol + p.Build(params), which
// validates (n, t) and the scheme/sender/default requirements centrally
// and returns typed errors.

// shim builds a cataloged protocol through the raw (unchecked) builder,
// reproducing the pre-catalog constructor semantics exactly.
func shim(id string, p ProtocolParams) (Factory, int) {
	spec, ok := catalog.Lookup(id)
	if !ok {
		panic("expensive: protocol " + id + " not registered")
	}
	f, err := spec.New(p)
	if err != nil {
		panic("expensive: build " + id + ": " + err.Error())
	}
	return f, spec.Rounds(p.N, p.T)
}

// NewDolevStrongBroadcast returns authenticated Byzantine broadcast with
// designated sender (t < n, t+1 rounds) and its decision-round bound.
func NewDolevStrongBroadcast(n, t int, sender ProcessID, scheme Scheme, defaultValue Value) (Factory, int) {
	return shim("dolev-strong", ProtocolParams{N: n, T: t, Sender: sender, Scheme: scheme, Default: defaultValue})
}

// NewInteractiveConsistency returns authenticated interactive consistency
// (n parallel Dolev-Strong instances, t < n). Decisions are encoded
// vectors; decode with DecodeVector.
func NewInteractiveConsistency(n, t int, scheme Scheme, defaultValue Value) (Factory, int) {
	return shim("ic", ProtocolParams{N: n, T: t, Scheme: scheme, Default: defaultValue})
}

// NewEIGConsistency returns unauthenticated interactive consistency by
// exponential information gathering (n > 3t).
func NewEIGConsistency(n, t int, defaultValue Value) (Factory, int) {
	return shim("eig", ProtocolParams{N: n, T: t, Default: defaultValue})
}

// NewPhaseKing returns binary strong consensus (unauthenticated, n > 4t,
// polynomial messages).
func NewPhaseKing(n, t int) (Factory, int) {
	return shim("phase-king", ProtocolParams{N: n, T: t})
}

// NewWeakConsensusIC returns authenticated weak consensus (any t < n).
func NewWeakConsensusIC(n, t int, scheme Scheme) (Factory, int) {
	return shim("weak-ic", ProtocolParams{N: n, T: t, Scheme: scheme})
}

// NewWeakConsensusEIG returns unauthenticated weak consensus (n > 3t).
func NewWeakConsensusEIG(n, t int) (Factory, int) {
	return shim("weak-eig", ProtocolParams{N: n, T: t})
}

// NewWeakConsensusPhaseKing returns unauthenticated polynomial weak
// consensus (n > 4t).
func NewWeakConsensusPhaseKing(n, t int) (Factory, int) {
	return shim("weak-phase-king", ProtocolParams{N: n, T: t})
}

// NewGradecast returns Feldman–Micali graded broadcast (n > 3t, 3 rounds).
// Decisions encode (grade, value) pairs; parse with ParseGradecast.
func NewGradecast(n, t int, sender ProcessID) (Factory, int) {
	return shim("gradecast", ProtocolParams{N: n, T: t, Sender: sender})
}

// ParseGradecast splits a gradecast decision into grade and value.
func ParseGradecast(out Value) (grade int, v Value, err error) { return gradecast.Parse(out) }

// NewFloodSet returns the crash-model FloodSet consensus (min of values,
// t+1 rounds). It is NOT omission- or Byzantine-tolerant: see experiment
// E10 for the attack that splits it.
func NewFloodSet(n, t int) (Factory, int) {
	return shim("floodset", ProtocolParams{N: n, T: t})
}

// NewFloodSetEarlyStopping returns the early-deciding FloodSet variant:
// decides within f+2 rounds under f <= t actual crashes (experiment E12).
func NewFloodSetEarlyStopping(n, t int) (Factory, int) {
	return shim("floodset-early", ProtocolParams{N: n, T: t})
}

// DecodeVector parses an interactive-consistency decision.
func DecodeVector(v Value) ([]Value, error) { return msg.DecodeVector(v) }

// External Validity (blockchain-style) agreement, §4.3.

// TxAuthority issues and validates client-signed transactions.
type TxAuthority = external.Authority

// NewTxAuthority wraps a scheme holding the client keys.
func NewTxAuthority(scheme Scheme) *TxAuthority { return external.NewAuthority(scheme) }

// ClientID returns the i-th client identity (outside Π) for key setup.
func ClientID(i int) ProcessID { return external.ClientBase + ProcessID(i) }

// NewExternalAgreement returns agreement with External Validity: the
// decision always satisfies authority.Valid. This shim constructs
// directly (not through the catalog) because it honors an explicit
// authority; the cataloged "external" protocol derives its authority from
// the params' scheme.
func NewExternalAgreement(n, t int, scheme Scheme, authority *TxAuthority, fallback Value) (Factory, int) {
	cfg := external.Config{N: n, T: t, Scheme: scheme, Authority: authority, Fallback: fallback}
	return external.New(cfg), external.RoundBound(t)
}

// The lower bound (Theorem 2) as a tool.

// FalsifyWeakConsensus runs the §3 construction against a weak consensus
// protocol with the given decision-round bound. The report either carries
// a Violation — a valid ≤t-fault execution in which weak consensus
// demonstrably fails — or certifies that the probe executions exceeded the
// t²/32 message budget.
func FalsifyWeakConsensus(name string, factory Factory, roundBound, n, t int) (*FalsifyReport, error) {
	return lowerbound.Falsify(name, factory, roundBound, n, t, lowerbound.Options{})
}

// CheckViolation independently re-validates a falsifier certificate:
// execution guarantees, fault budget, machine conformance, and the
// violation itself.
func CheckViolation(v *Violation, factory Factory, roundBound int) error {
	return lowerbound.CheckViolation(v, factory, roundBound)
}

// Solvability (Theorem 4) as a tool.

// WeakProblem, StrongProblem, BroadcastProblem, InteractiveProblem and
// CorrectSourceProblem build the standard validity properties at (n, t).
func WeakProblem(n, t int) Problem   { return validity.Weak(n, t) }
func StrongProblem(n, t int) Problem { return validity.Strong(n, t) }
func BroadcastProblem(n, t int, sender ProcessID) Problem {
	return validity.Broadcast(n, t, sender)
}
func InteractiveProblem(n, t int) Problem   { return validity.Interactive(n, t) }
func CorrectSourceProblem(n, t int) Problem { return validity.CorrectSource(n, t) }

// CheckSolvability evaluates the general solvability theorem for p.
func CheckSolvability(p Problem) Solvability { return p.Solve() }

// SolveAuthenticated derives an authenticated protocol for p (any t < n)
// via Algorithm 2, failing iff the containment condition fails.
func SolveAuthenticated(p Problem, scheme Scheme) (*Derived, error) {
	return solve.Authenticated(p, scheme)
}

// SolveUnauthenticated derives a signature-free protocol for p (n > 3t).
func SolveUnauthenticated(p Problem) (*Derived, error) { return solve.Unauthenticated(p) }

// CheckDerived runs a derived protocol on an input configuration and
// verifies Termination, Agreement and the problem's validity property.
func CheckDerived(p Problem, d *Derived, c InputConfig, byzantine map[ProcessID]Machine) error {
	return solve.Check(p, d, c, byzantine)
}

// NewInputConfig builds an input configuration over Π = {0..n-1}; absent
// processes are the faulty ones.
func NewInputConfig(n int, assign map[ProcessID]Value) (InputConfig, error) {
	return validity.NewConfig(n, assign)
}

// Algorithm 1: weak consensus from any agreement protocol.

// Alg1Spec fixes the reduction's two fully-correct configurations and v'_0.
type Alg1Spec = reduction.Alg1Spec

// DeriveWeakFromAgreement computes v'_0 (by running P's fully-correct
// execution on c0) and returns the zero-message Algorithm 1 wrapper.
func DeriveWeakFromAgreement(inner Factory, n, t, horizon int, c0, c1 []Value) (Factory, Alg1Spec, error) {
	spec, err := reduction.DeriveAlg1(inner, n, t, horizon, c0, c1)
	if err != nil {
		return nil, Alg1Spec{}, err
	}
	return reduction.WeakFromAgreement(inner, spec), spec, nil
}

// Adversary hunting: composable attack strategies, parallel seeded
// campaigns, and counterexample shrinking (see internal/adversary).

// NewCampaign builds a hunt of the given strategy against a protocol: n
// and t fix the system, factory/rounds the target, and seeds the range of
// deterministic probes. Tune the returned campaign (Validity, Shrink,
// Parallelism, New for n-shrinking) before calling Run.
func NewCampaign(protocol string, factory Factory, rounds, n, t int, strategy AttackStrategy, seeds SeedRange) *Campaign {
	return &Campaign{
		Target:   AttackTarget{Protocol: protocol, Factory: factory, Rounds: rounds, N: n, T: t},
		Strategy: strategy,
		Seeds:    seeds,
	}
}

// NewProblemCampaign builds a hunt against a problem's derived protocol,
// checking the problem's own validity property on every probe.
func NewProblemCampaign(p Problem, d *Derived, strategy AttackStrategy, seeds SeedRange) (*Campaign, error) {
	return solve.HuntCampaign(p, d, strategy, seeds)
}

// NewCampaignFor builds a hunt of the given strategy against a cataloged
// protocol: the factory, round bound, validity property and n-shrinking
// rebuild hook all come from the catalog handle. Params are validated
// centrally — hunting outside the resilience condition is a typed error.
func NewCampaignFor(p Protocol, params ProtocolParams, strategy AttackStrategy, seeds SeedRange) (*Campaign, error) {
	return matrix.CampaignFor(p, params, strategy, seeds)
}

// ShrinkOptionsFor derives the Shrink/RecheckViolation configuration for
// violations found against a cataloged protocol.
func ShrinkOptionsFor(p Protocol, params ProtocolParams) (ShrinkOptions, error) {
	return matrix.ShrinkOptionsFor(p, params)
}

// StrategyLibrary returns the named attack library in ID order; biasPct
// parameterizes the random-omission family.
func StrategyLibrary(biasPct int) []NamedStrategy { return adversary.Library(biasPct) }

// Observability. Telemetry is a strict side channel: attach a recorder to
// the Ctx of a Campaign, Fuzzer, Matrix, ExperimentOptions or falsifier
// Options via WithTelemetry and the engines count probes, time them into
// histograms and emit structured trace events — while every JSON report
// stays byte-identical with telemetry on or off, at every parallelism
// level. With no recorder attached (the default) the instrumented hot
// loops pay one nil check per call and allocate nothing.

// NewTelemetry returns an empty flight recorder.
func NewTelemetry() *Telemetry { return obs.New() }

// NewTelemetrySink returns a JSONL trace-event sink writing to w; attach
// it with Telemetry.SetSink to capture campaign/fuzz/matrix span events.
func NewTelemetrySink(w io.Writer) *TelemetrySink { return obs.NewSink(w) }

// WithTelemetry attaches the recorder to a context for an engine's Ctx
// field. A nil recorder is fine and means "telemetry off".
func WithTelemetry(ctx context.Context, r *Telemetry) context.Context { return obs.Into(ctx, r) }

// TelemetryFrom returns the recorder attached to ctx, or nil — the same
// lookup the engines perform once per run.
func TelemetryFrom(ctx context.Context) *Telemetry { return obs.From(ctx) }

// Adaptive fuzzing: coverage-guided plan mutation over the lean-probe
// engine (see internal/adversary/fuzz). Where a campaign sweeps fresh
// seeds blindly, a fuzzer mutates a corpus of explicit fault plans and
// keeps every probe that exercises novel engine behavior, so the search
// concentrates on the rare corner cases the lower bound lives in.

// NewFuzzer builds a coverage-guided hunt against a protocol: n and t fix
// the system, factory/rounds the target, seed the strategy whose plans
// populate generation 0, and budget the total number of candidate probes.
// Tune the returned fuzzer (Validity, Shrink, Corpus, StopOnViolation,
// Parallelism, New for n-shrinking) before calling Run.
func NewFuzzer(protocol string, factory Factory, rounds, n, t int, seed AttackStrategy, budget int) *Fuzzer {
	return &Fuzzer{
		Target: AttackTarget{Protocol: protocol, Factory: factory, Rounds: rounds, N: n, T: t},
		Seed:   seed,
		Budget: budget,
	}
}

// NewFuzzerFor builds a coverage-guided hunt against a cataloged
// protocol: the factory, round bound, validity property and n-shrinking
// rebuild hook all come from the catalog handle, with central Params
// validation.
func NewFuzzerFor(p Protocol, params ProtocolParams, seed AttackStrategy, budget int) (*Fuzzer, error) {
	return matrix.FuzzerFor(p, params, seed, budget)
}

// NewFuzzCorpus returns an empty corpus for the given target, ready to be
// attached to a Fuzzer and persisted with Save.
func NewFuzzCorpus(protocol string, n, t int) *FuzzCorpus { return fuzz.NewCorpus(protocol, n, t) }

// LoadFuzzCorpus reads a corpus saved by FuzzCorpus.Save, for resuming a
// hunt or replaying its entries.
func LoadFuzzCorpus(path string) (*FuzzCorpus, error) { return fuzz.LoadCorpus(path) }

// NewMatrix builds a registry-driven sweep of every registered protocol ×
// every library strategy × the default (n, t) grid over the given seed
// range. Tune the returned matrix (Protocols, Strategies, Sizes, Shrink,
// Parallelism) before calling Run; the JSON grid report is byte-identical
// at every parallelism level, with unsupported (n, t) cells explicitly
// marked skipped.
func NewMatrix(seeds SeedRange) *Matrix { return &Matrix{Seeds: seeds} }

// Distributed campaigns: shard a hunt, fuzz or matrix campaign across
// worker processes over TCP (internal/dist). The coordinator cuts the
// job into worker-count-independent units, folds results in unit order,
// and optionally checkpoints progress — the report (and fuzz corpus)
// stays byte-identical to the single-process run at any worker count,
// join order, or death schedule, including after a kill and resume.

// NewDistCampaign builds a coordinator for the given job. Tune it
// (Addr, LocalWorkers, CheckpointPath, HeartbeatTimeout, Corpus, Ctx)
// before calling Run; Start first to learn ListenAddr for remote
// workers.
func NewDistCampaign(job *DistJob) *DistCoordinator { return &DistCoordinator{Job: job} }

// NewDistWorker builds a worker for the coordinator at addr. Tune it
// (Name, Parallelism, DialAttempts, Ctx) before calling Run, which
// serves work units until the coordinator says done.
func NewDistWorker(addr string) *DistWorker { return &DistWorker{Addr: addr} }

// Strategy constructors — the attack library.

// StrategyRandomSendOmission drops a random faulty subset's outbound
// messages with the given percentage.
func StrategyRandomSendOmission(biasPct int) AttackStrategy {
	return adversary.RandomSendOmission(biasPct)
}

// StrategyRandomReceiveOmission drops a random faulty subset's inbound
// messages with the given percentage.
func StrategyRandomReceiveOmission(biasPct int) AttackStrategy {
	return adversary.RandomReceiveOmission(biasPct)
}

// StrategyRandomOmission drops a random faulty subset's inbound and
// outbound messages with the given percentage (the full §3 omission
// adversary, randomized).
func StrategyRandomOmission(biasPct int) AttackStrategy { return adversary.RandomOmission(biasPct) }

// StrategyTargetedWithhold is the targeted last-round-reveal attack that
// separates the crash model from the omission model (E10).
func StrategyTargetedWithhold() AttackStrategy { return adversary.TargetedWithhold() }

// StrategySilentCrash crashes random processes with partial delivery.
func StrategySilentCrash() AttackStrategy { return adversary.SilentCrash() }

// StrategySenderIsolation receive-isolates a random group from a random
// round on (the paper's Definition 1 pattern, randomized).
func StrategySenderIsolation() AttackStrategy { return adversary.SenderIsolation() }

// StrategyChaos replaces random processes with Byzantine chatterers.
func StrategyChaos() AttackStrategy { return adversary.Chaos() }

// StrategyEquivocate replaces random processes with equivocators that
// tell half of Π "0" and the other half "1".
func StrategyEquivocate() AttackStrategy { return adversary.Equivocate() }

// StrategyTwoFaced replaces random processes with machines running two
// honest protocol copies with opposite proposals, one per peer group.
func StrategyTwoFaced() AttackStrategy { return adversary.TwoFaced() }

// StrategyUnion combines two strategies, splitting the fault budget.
func StrategyUnion(a, b AttackStrategy) AttackStrategy { return adversary.Union(a, b) }

// StrategyWindowed gates a strategy's omissions to rounds [lo, hi].
func StrategyWindowed(s AttackStrategy, lo, hi int) AttackStrategy {
	return adversary.Windowed(s, lo, hi)
}

// StrategyBiased keeps each omission of the inner strategy only with the
// given percentage.
func StrategyBiased(s AttackStrategy, keepPct int) AttackStrategy {
	return adversary.Biased(s, keepPct)
}

// Validity properties for campaigns.

// CheckWeakValidity is the paper's Weak Validity (vacuous under faults).
func CheckWeakValidity(proposals []Value, correct ProcessSet, decision Value) error {
	return adversary.WeakValidity(proposals, correct, decision)
}

// CheckStrongValidity requires unanimous correct proposals to win.
func CheckStrongValidity(proposals []Value, correct ProcessSet, decision Value) error {
	return adversary.StrongValidity(proposals, correct, decision)
}

// CheckSenderValidity requires a correct designated sender's proposal to win.
func CheckSenderValidity(sender ProcessID) ValidityCheck { return adversary.SenderValidity(sender) }

// Shrink minimizes a campaign violation into a 1-minimal explicit fault
// plan, re-validating every candidate against the execution guarantees
// and machine conformance.
func Shrink(v *CampaignViolation, opts ShrinkOptions) (*ShrinkResult, error) {
	return adversary.Shrink(v, opts)
}

// RecheckViolation independently re-validates a campaign violation (and
// its shrunken counterexample, when present), CheckViolation-style.
func RecheckViolation(v *CampaignViolation, opts ShrinkOptions) error {
	return adversary.Recheck(v, opts)
}

// Experiments.

// RunExperiment executes one of the paper experiments E1–E12 with its
// recorded default parameters and full parallelism.
func RunExperiment(id string) (*ExperimentTable, error) { return experiments.Run(id) }

// RunExperiments executes the given experiments (all of them when ids is
// empty) on the parallel engine and returns per-experiment tables with
// wall-clock and probe-count statistics. Experiments run one after
// another; the requested parallelism fans out each experiment's
// independent simulation probes. Tables are byte-identical at every
// parallelism level.
func RunExperiments(opts ExperimentOptions, ids ...string) ([]*ExperimentResult, error) {
	return runner.RunMany(ids, opts)
}

// ListExperiments returns the registered experiments — ID, title, and
// recorded default parameters — in registration order.
func ListExperiments() []ExperimentInfo { return runner.List() }

// ExperimentIDs lists the available experiment IDs.
func ExperimentIDs() []string { return experiments.AllIDs() }

// Live transports.

// Mesh is a live message mesh usable with RunCluster.
type Mesh interface {
	Endpoints() []transport.Endpoint
}

// NewMemMesh returns an in-process goroutine mesh; drop may be nil or a
// transport-level omission filter (from, to, round) -> drop payload.
func NewMemMesh(n int, drop func(from, to ProcessID, round int) bool) Mesh {
	var filter memnet.DropFilter
	if drop != nil {
		filter = memnet.DropFilter(drop)
	}
	return memnet.New(n, filter)
}

// NewTCPMesh returns a TCP loopback mesh of n nodes. Close it via any
// endpoint when done.
func NewTCPMesh(n int) (Mesh, error) { return tcpnet.New(n) }

// RunCluster drives one machine per process over the mesh for the given
// number of rounds and returns per-node results.
func RunCluster(m Mesh, n int, factory Factory, proposals []Value, rounds int) ([]NodeResult, error) {
	c := transport.Cluster{N: n, Endpoints: m.Endpoints(), Factory: factory, Proposals: proposals, Rounds: rounds}
	return c.Run()
}

// RunClusterFor drives the cataloged protocol live over the mesh for its
// full round bound, with central Params validation.
func RunClusterFor(m Mesh, p Protocol, params ProtocolParams, proposals []Value) ([]NodeResult, error) {
	return matrix.ClusterFor(p, params, m.Endpoints(), proposals)
}

// ClusterDecision folds node results into the unique decision of a group.
func ClusterDecision(results []NodeResult, group ProcessSet) (Value, error) {
	return transport.CommonDecision(results, group)
}

// Universe returns the full process set {0..n-1}.
func Universe(n int) ProcessSet { return proc.Universe(n) }

// NewProcessSet builds a process set from ids.
func NewProcessSet(ids ...ProcessID) ProcessSet { return proc.NewSet(ids...) }

// State machine replication (the paper's motivating application).

// ReplicatedLog is a deterministic log driven by repeated agreement.
type ReplicatedLog = smr.Log

// LogEntry is one committed slot of a replicated log.
type LogEntry = smr.Entry

// NewReplicatedLog builds a replicated log whose slots each run one
// instance of the given agreement protocol.
func NewReplicatedLog(n, t int, protocol func(slot int) (Factory, int), noOp Value) (*ReplicatedLog, error) {
	return smr.New(smr.Config{N: n, T: t, Protocol: protocol, NoOp: noOp})
}

// NewReplicatedLogFor builds a replicated log whose slots each run one
// instance of the cataloged protocol, constructed with central Params
// validation.
func NewReplicatedLogFor(p Protocol, params ProtocolParams, noOp Value) (*ReplicatedLog, error) {
	return matrix.LogFor(p, params, noOp)
}

// Chaos & soak testing: deterministic wire faults, worker churn, and the
// live replicated log with online safety/liveness monitors.

type (
	// ChaosRule is one composable fault rule of a chaos plan: a kind, a
	// firing percentage, and an optional seq window.
	ChaosRule = chaosnet.Rule
	// ChaosPlan is a frozen fault schedule: every fault is a pure function
	// of (seed, link, seq), so a chaotic run replays exactly.
	ChaosPlan = chaosnet.Plan
	// ChaosEnv describes the mesh a chaos plan draws against.
	ChaosEnv = chaosnet.Env
	// ChaosFaults is one (link, seq)'s verdict: which faults fire.
	ChaosFaults = chaosnet.Faults
	// ChaosProfile is a named chaos plan constructor (flaky, storm, ...).
	ChaosProfile = chaosnet.Profile
	// ChurnEvent schedules one worker-process kill.
	ChurnEvent = churn.Event
	// ChurnHarness SIGKILLs and respawns worker processes on a schedule.
	ChurnHarness = churn.Harness
	// LiveReplicatedLog commits replicated-log slots over a real transport
	// mesh with online safety and liveness monitors.
	LiveReplicatedLog = smr.LiveLog
	// LiveReplicatedLogConfig parameterizes a live replicated log.
	LiveReplicatedLogConfig = smr.LiveConfig
	// SafetyDivergence is a recorded safety-monitor violation: trusted
	// replicas disagreed at a slot.
	SafetyDivergence = smr.Divergence
)

// Chaos fault kinds.
const (
	ChaosDrop      = chaosnet.Drop
	ChaosDelay     = chaosnet.Delay
	ChaosDuplicate = chaosnet.Duplicate
	ChaosReorder   = chaosnet.Reorder
	ChaosCorrupt   = chaosnet.Corrupt
	ChaosCut       = chaosnet.Cut
	ChaosPartition = chaosnet.Partition
)

// ErrCoordinatorDrained is returned by a drained DistCoordinator's Run:
// progress was checkpointed, no new units will be assigned.
var ErrCoordinatorDrained = dist.ErrDrained

// NewChaosPlan freezes a deterministic fault schedule over a mesh.
func NewChaosPlan(name string, seed int64, env ChaosEnv, rules ...ChaosRule) *ChaosPlan {
	return chaosnet.NewPlan(name, seed, env, rules...)
}

// ChaosProfiles returns the built-in chaos profile library.
func ChaosProfiles() []ChaosProfile { return chaosnet.Library() }

// ChaosProfileByID looks a built-in chaos profile up.
func ChaosProfileByID(id string) (ChaosProfile, bool) { return chaosnet.ByID(id) }

// WrapChaos wraps every endpoint of a mesh in the plan's deterministic
// faults; rec (nil-safe) records injected faults in the flight recorder.
func WrapChaos(m Mesh, plan *ChaosPlan, rec *Telemetry) Mesh {
	return chaosMesh{chaosnet.Wrap(m.Endpoints(), plan, rec)}
}

type chaosMesh struct{ eps []transport.Endpoint }

func (m chaosMesh) Endpoints() []transport.Endpoint { return m.eps }

// ParseChurnSchedule parses a kill schedule like "400ms:0,900ms:1"
// (kill slot 0 at 400ms, slot 1 at 900ms).
func ParseChurnSchedule(s string) ([]ChurnEvent, error) { return churn.Parse(s) }

// DistSerial runs a distributed job in-process on the single campaign
// engine — the byte-identity oracle every soak compares against.
func DistSerial(ctx context.Context, job *DistJob) (*DistReport, error) {
	return dist.Serial(ctx, job)
}

// NewLiveReplicatedLog builds a replicated log that commits slots over
// the configured transport mesh with online monitors armed.
func NewLiveReplicatedLog(cfg LiveReplicatedLogConfig) (*LiveReplicatedLog, error) {
	return smr.NewLive(cfg)
}

// RenderExecution draws an execution as a per-process, per-round text
// timeline in the visual language of the paper's Figures 1-2.
func RenderExecution(e *Execution, maxRounds int, groups map[string]ProcessSet) string {
	return viz.Timeline(e, viz.Options{MaxRounds: maxRounds, Groups: groups})
}
