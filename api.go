package expensive

import (
	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // link every protocol registration
	"expensive/internal/catalog/matrix"
	"expensive/internal/crypto/sig"
	"expensive/internal/experiments"
	"expensive/internal/experiments/runner"
	"expensive/internal/lowerbound"
	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/external"
	"expensive/internal/protocols/gradecast"
	"expensive/internal/protocols/reduction"
	"expensive/internal/sim"
	"expensive/internal/smr"
	"expensive/internal/solve"
	"expensive/internal/transport"
	"expensive/internal/transport/memnet"
	"expensive/internal/transport/tcpnet"
	"expensive/internal/validity"
	"expensive/internal/viz"
)

// Core vocabulary: aliases for the internal model types, so that callers
// can name every value the API returns. A name is here because an example,
// a root test or a signature below uses it (TestFacadeSurfaceIsUsed).
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
	// FaultPlan is the static adversary of a simulated run.
	FaultPlan = sim.FaultPlan
	// Execution is a recorded run (the Appendix A.1.6 object).
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
	// AttackTarget is the protocol under test, embedded by Campaign, Fuzzer
	// and ShrinkOptions; it owns the evidence pipeline (Probe, Evidence,
	// Replay).
	AttackTarget = adversary.Target
	// Campaign is a seeded adversarial hunt: one strategy versus one
	// protocol over a range of seeds, every probe fully checked. Build one
	// for a cataloged protocol with NewCampaignFor; hunt any other with a
	// keyed Campaign{Target: AttackTarget{...}} literal.
	Campaign = adversary.Campaign
	// CampaignViolation is a protocol failure found by a campaign probe.
	CampaignViolation = adversary.Violation
	// ShrinkResult is a minimized counterexample.
	ShrinkResult = adversary.ShrinkResult
	// ShrinkOptions parameterize Shrink and RecheckViolation.
	ShrinkOptions = adversary.ShrinkOptions
	// SeedRange is the half-open seed interval a campaign sweeps.
	SeedRange = adversary.SeedRange
	// Protocol is a first-class catalog entry: identity, model, resilience
	// condition, requirements, round bound, and builder. Obtain one from
	// Protocols or LookupProtocol; construct with p.Build(params).
	Protocol = catalog.Spec
	// ProtocolParams is the uniform construction input of every cataloged
	// protocol.
	ProtocolParams = catalog.Params
	// ProtocolParamsError is the typed Build validation failure (wraps
	// ErrUnsupported or ErrBadParams).
	ProtocolParamsError = catalog.ParamsError
	// NamedStrategy couples a short stable ID with an attack strategy.
	NamedStrategy = adversary.Named
	// Fuzzer is a coverage-guided adaptive hunt: plan mutation over a
	// replayable corpus, steered by a lean-tier novelty signal.
	Fuzzer = fuzz.Fuzzer
	// FuzzCorpus is the persisted, replayable population of a fuzzing run.
	FuzzCorpus = fuzz.Corpus
	// Matrix sweeps protocol × strategy × (n, t) over the worker pool.
	Matrix = matrix.Matrix
	// MatrixSize is one (n, t) grid point of a matrix sweep.
	MatrixSize = matrix.Size
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

// NewIdealScheme returns the idealized HMAC-backed signature oracle
// (deterministic, fast — the paper's idealized authenticated setting).
func NewIdealScheme(seed string) Scheme { return sig.NewIdeal(seed) }

// NewEd25519Scheme returns a real Ed25519 scheme with deterministic
// per-process keys for ids 0..n-1 plus extraIDs.
func NewEd25519Scheme(seed string, n int, extraIDs ...ProcessID) Scheme {
	return sig.NewEd25519(seed, n, extraIDs...)
}

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
// handles. p.Build(params) validates (n, t) and the scheme/sender/default
// requirements centrally and returns typed errors.

// Protocols returns every registered protocol in ID order.
func Protocols() []Protocol { return catalog.Protocols() }

// LookupProtocol returns the protocol registered under id
// ("dolev-strong", "floodset", "phase-king", ...).
func LookupProtocol(id string) (Protocol, bool) { return catalog.Lookup(id) }

// DefaultProtocolParams returns the canonical parameters at (n, t):
// sender 0, the idealized deterministic scheme, default decision ⊥.
func DefaultProtocolParams(n, t int) ProtocolParams { return catalog.DefaultParams(n, t) }

// ParseGradecast splits a "gradecast" decision into grade and value.
func ParseGradecast(out Value) (grade int, v Value, err error) { return gradecast.Parse(out) }

// DecodeVector parses an interactive-consistency ("ic", "eig") decision.
func DecodeVector(v Value) ([]Value, error) { return msg.DecodeVector(v) }

// External Validity (blockchain-style) agreement, §4.3.

// TxAuthority issues and validates client-signed transactions.
type TxAuthority = external.Authority

// NewTxAuthority wraps a scheme holding the client keys.
func NewTxAuthority(scheme Scheme) *TxAuthority { return external.NewAuthority(scheme) }

// ClientID returns the i-th client identity (outside Π) for key setup.
func ClientID(i int) ProcessID { return external.ClientBase + ProcessID(i) }

// NewExternalAgreement returns agreement with External Validity: the
// decision always satisfies authority.Valid. It constructs directly (not
// through the catalog) because it honors an explicit authority; the
// cataloged "external" protocol derives its authority from the params'
// scheme.
func NewExternalAgreement(n, t int, scheme Scheme, authority *TxAuthority, fallback Value) (Factory, int) {
	cfg := external.Config{N: n, T: t, Scheme: scheme, Authority: authority, Fallback: fallback}
	return external.New(cfg), external.RoundBound(t)
}

// The lower bound (Theorem 2) as a tool.

// Floor is Theorem 2's bound: any weak consensus protocol tolerating t
// omission faults has an execution in which correct processes send at
// least t²/32 messages (integer floor). The bound is asymptotic — it is 0
// for t < 6.
func Floor(t int) int { return lowerbound.Floor(t) }

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

// WeakProblem and StrongProblem build the two standard consensus validity
// properties at (n, t); any other property is a Problem literal.
func WeakProblem(n, t int) Problem   { return validity.Weak(n, t) }
func StrongProblem(n, t int) Problem { return validity.Strong(n, t) }

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
// execution on c0) and returns the zero-message Algorithm 1 wrapper. It
// refuses a c1 whose fully-correct execution decides v'_0 as well.
func DeriveWeakFromAgreement(inner Factory, n, t, horizon int, c0, c1 []Value) (Factory, Alg1Spec, error) {
	spec, err := reduction.DeriveAlg1(inner, n, t, horizon, c0, c1)
	if err != nil {
		return nil, Alg1Spec{}, err
	}
	return reduction.WeakFromAgreement(inner, spec), spec, nil
}

// Adversary hunting: composable attack strategies, parallel seeded
// campaigns, and counterexample shrinking (see internal/adversary).

// NewCampaignFor builds a hunt of the given strategy against a cataloged
// protocol: the factory, round bound, validity property and n-shrinking
// rebuild hook all come from the catalog handle. Params are validated
// centrally — hunting outside the resilience condition is a typed error.
func NewCampaignFor(p Protocol, params ProtocolParams, strategy AttackStrategy, seeds SeedRange) (*Campaign, error) {
	return matrix.CampaignFor(p, params, strategy, seeds)
}

// NewProblemCampaign builds a hunt against a problem's derived protocol,
// checking the problem's own validity property on every probe.
func NewProblemCampaign(p Problem, d *Derived, strategy AttackStrategy, seeds SeedRange) (*Campaign, error) {
	return solve.HuntCampaign(p, d, strategy, seeds)
}

// ShrinkOptionsFor derives the Shrink/RecheckViolation configuration for
// violations found against a cataloged protocol.
func ShrinkOptionsFor(p Protocol, params ProtocolParams) (ShrinkOptions, error) {
	return matrix.ShrinkOptionsFor(p, params)
}

// StrategyLibrary returns the named attack library in ID order; biasPct
// parameterizes the random-omission family.
func StrategyLibrary(biasPct int) []NamedStrategy { return adversary.Library(biasPct) }

// StrategyRandomSendOmission drops a random faulty subset's outbound
// messages with the given percentage.
func StrategyRandomSendOmission(biasPct int) AttackStrategy {
	return adversary.RandomSendOmission(biasPct)
}

// StrategyRandomOmission drops a random faulty subset's inbound and
// outbound messages with the given percentage (the full §3 omission
// adversary, randomized).
func StrategyRandomOmission(biasPct int) AttackStrategy { return adversary.RandomOmission(biasPct) }

// StrategyTargetedWithhold is the targeted last-round-reveal attack that
// separates the crash model from the omission model (E10).
func StrategyTargetedWithhold() AttackStrategy { return adversary.TargetedWithhold() }

// StrategyChaos replaces random processes with Byzantine chatterers.
func StrategyChaos() AttackStrategy { return adversary.Chaos() }

// StrategyUnion combines two strategies, splitting the fault budget.
func StrategyUnion(a, b AttackStrategy) AttackStrategy { return adversary.Union(a, b) }

// CheckWeakValidity is the paper's Weak Validity (vacuous under faults),
// in the shape of AttackTarget.Validity.
func CheckWeakValidity(proposals []Value, correct ProcessSet, decision Value) error {
	return validity.WeakCheck(proposals, correct, decision)
}

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

// Adaptive fuzzing (see internal/adversary/fuzz). Where a campaign sweeps
// fresh seeds blindly, a fuzzer mutates a corpus of explicit fault plans
// and keeps every probe that exercises novel engine behavior.

// NewFuzzerFor builds a coverage-guided hunt against a cataloged
// protocol: the factory, round bound, validity property and n-shrinking
// rebuild hook all come from the catalog handle, with central Params
// validation. Tune the returned fuzzer (Shrink, Corpus, StopOnViolation,
// Parallelism) before calling Run.
func NewFuzzerFor(p Protocol, params ProtocolParams, seed AttackStrategy, budget int) (*Fuzzer, error) {
	return matrix.FuzzerFor(p, params, seed, budget)
}

// LoadFuzzCorpus reads a corpus saved by FuzzCorpus.Save, for resuming a
// hunt or replaying its entries.
func LoadFuzzCorpus(path string) (*FuzzCorpus, error) { return fuzz.LoadCorpus(path) }

// NewMatrix builds a sweep of every registered protocol × every library
// strategy × the default (n, t) grid over the given seed range. Tune it
// (Protocols, Strategies, Sizes, Shrink, Parallelism) before calling Run;
// the grid is byte-identical at every parallelism level, and a cell whose
// (n, t) the protocol does not support is marked skipped.
func NewMatrix(seeds SeedRange) *Matrix { return &Matrix{Seeds: seeds} }

// Experiments.

// RunExperiment executes one of the paper experiments E1–E12 with its
// recorded default parameters and full parallelism.
func RunExperiment(id string) (*ExperimentTable, error) { return experiments.Run(id) }

// RunExperiments executes the given experiments (all of them when ids is
// empty) one after another and returns their tables with wall-clock and
// probe-count statistics. The requested parallelism fans out each
// experiment's independent simulation probes; tables are byte-identical
// at every parallelism level.
func RunExperiments(opts ExperimentOptions, ids ...string) ([]*ExperimentResult, error) {
	return runner.RunMany(ids, opts)
}

// ListExperiments returns the registered experiments — ID, title, and
// recorded default parameters — in registration order.
func ListExperiments() []ExperimentInfo { return runner.List() }

// ExperimentIDs lists the available experiment IDs.
func ExperimentIDs() []string { return experiments.AllIDs() }

// Live transports.

// Mesh is a live message mesh usable with RunClusterFor.
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

// RunClusterFor drives the cataloged protocol live over the mesh — one
// machine per process — for its full round bound, with central Params
// validation, and returns per-node results.
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

// NewReplicatedLogFor builds a replicated log whose slots each run one
// instance of the cataloged protocol, constructed with central Params
// validation.
func NewReplicatedLogFor(p Protocol, params ProtocolParams, noOp Value) (*ReplicatedLog, error) {
	return matrix.LogFor(p, params, noOp)
}

// RenderExecution draws an execution as a per-process, per-round text
// timeline in the visual language of the paper's Figures 1-2.
func RenderExecution(e *Execution, maxRounds int, groups map[string]ProcessSet) string {
	return viz.Timeline(e, viz.Options{MaxRounds: maxRounds, Groups: groups})
}
