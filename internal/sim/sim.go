// Package sim implements the synchronous computational model of §2 and
// Appendix A.1: n deterministic state machines advancing in lock-step
// rounds, a static adversary that corrupts up to t processes before the
// run, and per-round trace recording.
//
// One round loop runs every execution; the recording tier only decides
// what it keeps. At RecordFull (the default) it keeps the Execution
// Appendix A.1.6 defines: a faulty set plus one Behavior per process,
// where a Behavior is a sequence of Fragments (state, sent, send-omitted,
// received, receive-omitted per round). Everything downstream — the
// omission-model validator, swap_omission, merge, and the lower-bound
// falsifier — operates on these traces. A full run allocates its
// fragments as one array and each round's Sent and Received lists as one
// arena (see Fragment for what that asks of readers). At RecordDecisions
// it keeps a projection of the same execution — per-process decisions and
// per-round message counts, which Behavior.Counts reads at either tier —
// and allocates nothing per message; the routing scratch is pooled across
// Run calls. Probe sweeps (hunt campaigns, the protocol × strategy
// matrix, the falsifier families) probe lean and deterministically re-run
// the rare violating configuration at RecordFull for its Trace, the only
// execution type the evidence APIs take.
//
// A machine that tells every other process the same thing returns one
// Outgoing entry addressed to Everyone; Broadcast keeps that entry inside
// the machine, so saying it allocates nothing. The send phase expands the
// entry into its n − 1 messages, each through the same checks, fault-plan
// questions and records as a message addressed to one peer, so counts,
// traces and the message complexity count every peer. Every other reader
// of a machine's output (Conforms, the adversary's two-faced machine,
// transport.RunNode) expands it with Expand.
//
// Determinism contract: a Machine's outputs may depend only on its inputs
// (proposal, round number, received messages). The engine delivers received
// messages sorted by sender before every Step, so identical views yield
// identical behavior — the indistinguishability property the paper's proofs
// rely on. (Engine inboxes are filled in ascending sender order within a
// single round, so they are born sorted; Conforms still sorts explicitly
// because it replays recorded traces of arbitrary origin.) The received
// slice passed to Step is only valid for the duration of the call: machines
// must not retain it.
package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"expensive/internal/msg"
	"expensive/internal/proc"
)

// runCount counts Run invocations process-wide. The experiment engine
// snapshots it around a run to attribute probe counts per experiment.
var runCount atomic.Int64

// Runs returns the total number of simulation probes (Run invocations)
// started so far in this process.
func Runs() int64 { return runCount.Load() }

// Recording selects how much of an execution the engine records.
type Recording int

const (
	// RecordFull records the complete Appendix A.1.6 trace: four message
	// slices per process per round, the Sent and Received ones of a round
	// carved from one arena (see Fragment). This is the zero value.
	RecordFull Recording = iota
	// RecordDecisions is the lean tier: per-process decisions plus
	// per-round sent/omitted/received counts, no message slices. APIs that
	// need the messages themselves take a *Trace, which Execution.Trace
	// refuses to make of a lean execution; callers re-run the same
	// deterministic configuration at RecordFull when they need evidence.
	RecordDecisions
)

// String renders the recording level.
func (r Recording) String() string {
	switch r {
	case RecordFull:
		return "full"
	case RecordDecisions:
		return "decisions"
	default:
		return fmt.Sprintf("Recording(%d)", int(r))
	}
}

// Outgoing is a message a machine asks the engine to send in the next
// round. The engine stamps sender and round. To is a process of Π, or
// Everyone: one entry then stands for n − 1 messages with one payload.
type Outgoing struct {
	To      proc.ID
	Payload string
}

// Everyone is the address of an Outgoing entry meant for every process of
// Π but its sender (sim.Broadcast's one entry). It lies outside Π and
// away from -1, which means "no process" elsewhere, so a stray -1 is still
// refused as an unknown receiver.
const Everyone proc.ID = math.MinInt

// receivers is the processes an entry addressed to to covers among n, as
// count consecutive IDs from first: all of Π for Everyone, whose sender
// the caller skips, and to alone otherwise, whatever its value. It is the
// one definition of whom Everyone reaches, shared by the engine's send
// phase and Expand.
func receivers(to proc.ID, n int) (first proc.ID, count int) {
	if to == Everyone {
		return 0, n
	}
	return to, 1
}

// Expand appends to dst the messages a machine of process self among n
// addresses with out, one entry per receiver: an entry to Everyone becomes
// an entry for every process of Π = {p_0 … p_{n-1}} but self, in ID
// order, and any other entry is appended as it is. Every reader of a
// Machine's output outside the engine goes through it; the engine expands
// the same way inside its send phase, with its checks.
func Expand(dst, out []Outgoing, n int, self proc.ID) []Outgoing {
	for _, o := range out {
		first, count := receivers(o.To, n)
		for k := 0; k < count; k++ {
			if p := first + proc.ID(k); p != self || o.To != Everyone {
				dst = append(dst, Outgoing{To: p, Payload: o.Payload})
			}
		}
	}
	return dst
}

// messages is how many messages out stands for among n, the length of its
// expansion: n − 1 for an entry to Everyone, one for any other.
func messages(out []Outgoing, n int) int {
	total := 0
	for _, o := range out {
		if o.To == Everyone {
			total += n - 1
		} else {
			total++
		}
	}
	return total
}

// Machine is the deterministic per-process state machine of Appendix A.1.3.
//
// Init returns the messages sent in round 1 (they depend only on the
// initial state). Step consumes the messages received in round r and
// returns the messages to send in round r+1; the received slice is only
// valid for the duration of the call — it is backing store the engine
// and transport.RunNode reuse — so machines must copy anything they keep. The ownership rule is
// the same in the other direction: a slice returned by Init or Step is
// lent until the next Init or Step call on that machine (see Broadcast).
// An entry of it may be addressed to Everyone, so whoever reads the slice
// other than the engine reads it through Expand, never through To alone;
// the engine refuses a slice that, expanded, sends to its own machine, to
// a process outside Π, or twice to one peer. Decision exposes the
// decision-bit component of the state; once set it must never change
// (DecideOnce). Quiescent reports that the machine will never send again
// regardless of future inputs — the engine uses it for sound early
// termination.
type Machine interface {
	Init() []Outgoing
	Step(round int, received []msg.Message) []Outgoing
	Decision() (msg.Value, bool)
	Quiescent() bool
}

// Factory builds the honest machine of process id with the given proposal.
type Factory func(id proc.ID, proposal msg.Value) Machine

// FaultPlan is the static adversary: it fixes the corrupted set before the
// run and controls how corrupted processes misbehave. Honest machines of
// corrupted processes still run under an omission plan (they are "honest
// but dropped"); a Byzantine plan replaces the machine outright.
//
// The engine reads Faulty once, before round 1, and from then on asks the
// plan only about the processes it corrupted: SendOmit only about messages
// whose sender is in Faulty(), ReceiveOmit only about messages whose
// receiver is. A correct process therefore never omits, whatever the plan
// would have answered — omission validity holds by construction, and a
// fault-free round costs no adversary call at all.
type FaultPlan interface {
	// Faulty returns the corrupted set F, |F| <= t.
	Faulty() proc.Set
	// Byzantine returns a replacement machine for corrupted process id, or
	// nil to run the honest machine subject to omissions.
	Byzantine(id proc.ID) Machine
	// SendOmit reports whether the corrupted sender send-omits m.
	SendOmit(m msg.Message) bool
	// ReceiveOmit reports whether the corrupted receiver receive-omits m.
	ReceiveOmit(m msg.Message) bool
}

// NoFaults is the fully-correct fault plan (the paper's E0-style runs).
type NoFaults struct{}

var _ FaultPlan = NoFaults{}

// Faulty implements FaultPlan.
func (NoFaults) Faulty() proc.Set { return proc.Set{} }

// Byzantine implements FaultPlan.
func (NoFaults) Byzantine(proc.ID) Machine { return nil }

// SendOmit implements FaultPlan.
func (NoFaults) SendOmit(msg.Message) bool { return false }

// ReceiveOmit implements FaultPlan.
func (NoFaults) ReceiveOmit(msg.Message) bool { return false }

// OmissionPlan corrupts F with send/receive omission faults chosen by the
// two predicates (§3's failure model). Honest machines keep running.
type OmissionPlan struct {
	F         proc.Set
	SendFn    func(m msg.Message) bool
	ReceiveFn func(m msg.Message) bool
}

var _ FaultPlan = OmissionPlan{}

// Faulty implements FaultPlan.
func (p OmissionPlan) Faulty() proc.Set { return p.F }

// Byzantine implements FaultPlan.
func (p OmissionPlan) Byzantine(proc.ID) Machine { return nil }

// SendOmit implements FaultPlan.
func (p OmissionPlan) SendOmit(m msg.Message) bool {
	return p.SendFn != nil && p.F.Contains(m.Sender) && p.SendFn(m)
}

// ReceiveOmit implements FaultPlan.
func (p OmissionPlan) ReceiveOmit(m msg.Message) bool {
	return p.ReceiveFn != nil && p.F.Contains(m.Receiver) && p.ReceiveFn(m)
}

// ByzantinePlan replaces the machines of corrupted processes with
// adversarial ones.
type ByzantinePlan struct {
	Machines map[proc.ID]Machine
}

var _ FaultPlan = ByzantinePlan{}

// Faulty implements FaultPlan.
func (p ByzantinePlan) Faulty() proc.Set {
	ids := make([]proc.ID, 0, len(p.Machines))
	for id := range p.Machines {
		ids = append(ids, id)
	}
	return proc.NewSet(ids...)
}

// Byzantine implements FaultPlan.
func (p ByzantinePlan) Byzantine(id proc.ID) Machine { return p.Machines[id] }

// SendOmit implements FaultPlan.
func (p ByzantinePlan) SendOmit(msg.Message) bool { return false }

// ReceiveOmit implements FaultPlan.
func (p ByzantinePlan) ReceiveOmit(msg.Message) bool { return false }

// Config parameterizes a run.
type Config struct {
	N int
	T int
	// Proposals assigns a proposal to every process (len N). The engine
	// treats entries of corrupted processes as their nominal initial state.
	Proposals []msg.Value
	// MaxRounds is the execution horizon (must be positive). Protocol round
	// bounds are supplied by the caller; the engine may stop earlier only
	// when every machine is quiescent.
	MaxRounds int
	// DisableEarlyStop forces the engine to run exactly MaxRounds even when
	// all machines are quiescent. omission.Merge uses it: its execution
	// lasts exactly the horizon it is given, and the falsifier logs that
	// round count.
	DisableEarlyStop bool
	// Recording selects what the round loop keeps of the execution. The
	// zero value, RecordFull, keeps the whole Appendix A.1.6 trace.
	Recording Recording
}

// Horizon is how long a protocol with the given decision-round bound is
// run by default: two rounds past the bound. The first extra round makes
// "undecided past the bound" observable — a termination claim on a trace
// no longer than the bound is not yet a violation, and the falsifier's
// last isolation candidate starts at round bound+1 — and the second gives
// whatever that round provokes a round to land in, so a late send or
// decision is recorded instead of cut off. Clean runs do not pay for the
// slack: the engine stops once every machine is quiescent and decided.
func Horizon(roundBound int) int { return roundBound + 2 }

func (c Config) validate() error {
	switch {
	case c.N < 2:
		return fmt.Errorf("config: need n >= 2, got %d", c.N)
	case c.T < 0 || c.T >= c.N:
		return fmt.Errorf("config: need 0 <= t < n, got n=%d t=%d", c.N, c.T)
	case len(c.Proposals) != c.N:
		return fmt.Errorf("config: need %d proposals, got %d", c.N, len(c.Proposals))
	case c.MaxRounds <= 0:
		return fmt.Errorf("config: MaxRounds must be positive, got %d", c.MaxRounds)
	case c.Recording != RecordFull && c.Recording != RecordDecisions:
		return fmt.Errorf("config: unknown recording level %d", int(c.Recording))
	}
	return nil
}

// Fragment is the Appendix A.1.4 per-round record of one process: the
// messages it sent, send-omitted, received and receive-omitted in the
// round, plus the decision component of its state at the start of the
// next round.
//
// In a trace Run recorded, an empty list is nil and every list is
// read-only. The Sent and Received lists of all processes in one round are
// windows on one arena, each capped at its length, so an append copies
// the list instead of writing into the next one.
type Fragment struct {
	Round          int
	Sent           []msg.Message
	SendOmitted    []msg.Message
	Received       []msg.Message
	ReceiveOmitted []msg.Message
	Decided        bool
	Decision       msg.Value
}

// LeanBehavior is the RecordDecisions-tier record of one process: per-round
// message counts (parallel slices indexed by round-1) plus the decision
// trajectory. The message identities themselves are not retained.
type LeanBehavior struct {
	Sent           []int
	SendOmitted    []int
	Received       []int
	ReceiveOmitted []int
	Decided        bool
	Decision       msg.Value
	// DecidedRound is the first round (1-based) at whose end the process
	// had decided, 0 when it never decided within the recorded prefix.
	DecidedRound int
}

// Behavior is the Appendix A.1.5 full per-process record: proposal plus
// one fragment per round. Lean-tier behaviors carry counts instead of
// fragments (Lean non-nil, Fragments nil).
type Behavior struct {
	ID        proc.ID
	Proposal  msg.Value
	Fragments []Fragment
	// Lean holds the RecordDecisions-tier record; nil on full traces.
	Lean *LeanBehavior
}

// Frag returns the fragment of round r (1-based), or an empty fragment if
// the behavior is shorter (the process is silent past its recorded end).
// Lean behaviors have no fragments; Frag reports every round empty.
func (b *Behavior) Frag(r int) Fragment {
	if r < 1 || r > len(b.Fragments) {
		return Fragment{Round: r}
	}
	return b.Fragments[r-1]
}

// RoundsRecorded returns the number of rounds this behavior records, at
// either tier.
func (b *Behavior) RoundsRecorded() int {
	if b.Lean != nil {
		return len(b.Lean.Sent)
	}
	return len(b.Fragments)
}

// FinalDecision returns the process's decision at the end of the behavior.
func (b *Behavior) FinalDecision() (msg.Value, bool) {
	if b.Lean != nil {
		if !b.Lean.Decided {
			return msg.NoDecision, false
		}
		return b.Lean.Decision, true
	}
	if len(b.Fragments) == 0 {
		return msg.NoDecision, false
	}
	f := b.Fragments[len(b.Fragments)-1]
	if !f.Decided {
		return msg.NoDecision, false
	}
	return f.Decision, true
}

// DecisionRound returns the first round (1-based) at whose end the process
// had decided, or 0 when it never decided within the recorded prefix. It
// works at both recording tiers.
func (b *Behavior) DecisionRound() int {
	if b.Lean != nil {
		return b.Lean.DecidedRound
	}
	for i := range b.Fragments {
		if b.Fragments[i].Decided {
			return i + 1
		}
	}
	return 0
}

// Counts returns how many messages the process sent, send-omitted,
// received and receive-omitted in round r (1-based), at either tier. A
// round outside the recorded prefix counts zero throughout.
func (b *Behavior) Counts(r int) (sent, sendOmitted, received, receiveOmitted int) {
	if r < 1 || r > b.RoundsRecorded() {
		return 0, 0, 0, 0
	}
	if l := b.Lean; l != nil {
		return l.Sent[r-1], l.SendOmitted[r-1], l.Received[r-1], l.ReceiveOmitted[r-1]
	}
	f := &b.Fragments[r-1]
	return len(f.Sent), len(f.SendOmitted), len(f.Received), len(f.ReceiveOmitted)
}

// AllSent returns every message the process (successfully) sent.
func (b *Behavior) AllSent() []msg.Message {
	return b.collect(func(f *Fragment) []msg.Message { return f.Sent })
}

// AllSendOmitted returns every message the process send-omitted.
func (b *Behavior) AllSendOmitted() []msg.Message {
	return b.collect(func(f *Fragment) []msg.Message { return f.SendOmitted })
}

// AllReceiveOmitted returns every message the process receive-omitted.
func (b *Behavior) AllReceiveOmitted() []msg.Message {
	return b.collect(func(f *Fragment) []msg.Message { return f.ReceiveOmitted })
}

// collect concatenates one message list over every fragment, in round
// order; nil when the lists are all empty, as on a lean behavior, which
// records no message identities.
func (b *Behavior) collect(list func(*Fragment) []msg.Message) []msg.Message {
	total := 0
	for i := range b.Fragments {
		total += len(list(&b.Fragments[i]))
	}
	if total == 0 {
		return nil
	}
	out := make([]msg.Message, 0, total)
	for i := range b.Fragments {
		out = append(out, list(&b.Fragments[i])...)
	}
	return out
}

// Execution is the Appendix A.1.6 object: a bounded prefix of a (formally
// infinite) execution, with the faulty set and one behavior per process.
type Execution struct {
	N      int
	T      int
	Faulty proc.Set
	// Behaviors has length N, indexed by process ID.
	Behaviors []*Behavior
	// Rounds is the number of recorded rounds.
	Rounds int
	// Quiesced reports that the run ended because every machine was
	// quiescent (so the recorded prefix determines the infinite execution).
	Quiesced bool
	// Recording is the tier the execution was recorded at. Constructed
	// executions (swap_omission's) carry full traces and inherit the zero
	// value, RecordFull.
	Recording Recording
}

// Trace is an execution recorded at RecordFull, so its fragments hold
// their messages; Execution.Trace is the one way to get one.
type Trace struct{ *Execution }

// Trace returns e as a full trace: the one check of an execution's tier.
func (e *Execution) Trace() (*Trace, error) {
	if e.Recording != RecordFull {
		return nil, fmt.Errorf("requires a full trace, got recording level %q — re-run the configuration at sim.RecordFull", e.Recording)
	}
	return &Trace{e}, nil
}

// Behavior returns the behavior of process id.
func (e *Execution) Behavior(id proc.ID) *Behavior { return e.Behaviors[id] }

// Correct returns Π \ Faulty.
func (e *Execution) Correct() proc.Set { return e.Faulty.Complement(e.N) }

// Decision returns the final decision of process id; a process the
// execution does not have has none.
func (e *Execution) Decision(id proc.ID) (msg.Value, bool) {
	if id < 0 || int(id) >= len(e.Behaviors) {
		return msg.NoDecision, false
	}
	return e.Behaviors[id].FinalDecision()
}

// Unanimity is the one scan behind every "do these processes agree?"
// question. It walks group in ID order and returns its first member, what
// that member decided, and the first member — odd — that is undecided or
// decided otherwise. odd is -1 when the whole group decided common, and
// first is -1 when the group is empty.
func (e *Execution) Unanimity(group proc.Set) (common msg.Value, first, odd proc.ID) {
	first = -1
	for id := group.Min(); id >= 0; id = group.Next(id) {
		d, ok := e.Decision(id)
		if first < 0 {
			common, first = d, id
		}
		if !ok || d != common {
			return common, first, id
		}
	}
	return common, first, -1
}

// CommonDecision returns the unique decision of all processes in group, or
// an error if one of them is undecided, is not a process of the execution,
// or two of them disagree.
func (e *Execution) CommonDecision(group proc.Set) (msg.Value, error) {
	common, first, odd := e.Unanimity(group)
	switch {
	case first < 0:
		return msg.NoDecision, fmt.Errorf("empty group")
	case odd < 0:
		return common, nil
	case int(odd) >= e.N:
		return msg.NoDecision, fmt.Errorf("%s is not a process of this execution (n=%d)", odd, e.N)
	}
	if d, ok := e.Decision(odd); ok {
		return msg.NoDecision, fmt.Errorf("%s decided %q, others decided %q", odd, d, common)
	}
	return msg.NoDecision, fmt.Errorf("%s is undecided after %d rounds", odd, e.Rounds)
}

// CorrectMessages is the paper's message complexity of the execution: the
// number of messages sent by correct processes. It reads Counts, so it
// works at both recording tiers.
func (e *Execution) CorrectMessages() int {
	total := 0
	for i, b := range e.Behaviors {
		if e.Faulty.Contains(proc.ID(i)) {
			continue
		}
		for r := 1; r <= b.RoundsRecorded(); r++ {
			sent, _, _, _ := b.Counts(r)
			total += sent
		}
	}
	return total
}

// Proposals returns the proposal vector of the execution.
func (e *Execution) Proposals() []msg.Value {
	out := make([]msg.Value, e.N)
	for i, b := range e.Behaviors {
		out[i] = b.Proposal
	}
	return out
}

// scratch holds the engine's per-run working set. The round loop is the
// hot path of every probe sweep — falsifier families, hunt campaigns, the
// protocol × strategy matrix all run it millions of rounds — so the
// routing tables, the corrupted mask and the duplicate-receiver check are
// pooled and reused across Run calls.
type scratch struct {
	machines []Machine
	inboxes  [][]msg.Message
	pending  [][]Outgoing
	// corrupted[i] reports whether process i is in the running plan's
	// faulty set. run rewrites all of its first n entries before round 1,
	// so nothing of an earlier run's plan is left over.
	corrupted []bool
	seen      []int // generation-stamped duplicate-receiver check
	gen       int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow readies the scratch for a run with n processes. Slices keep their
// backing arrays across runs; entries are reset lazily per round.
func (s *scratch) grow(n int) {
	for len(s.machines) < n {
		s.machines = append(s.machines, nil)
	}
	for len(s.inboxes) < n {
		s.inboxes = append(s.inboxes, nil)
	}
	for len(s.pending) < n {
		s.pending = append(s.pending, nil)
	}
	for len(s.corrupted) < n {
		s.corrupted = append(s.corrupted, false)
	}
	for len(s.seen) < n {
		s.seen = append(s.seen, 0)
	}
}

// reset drops the references a finished run over n processes left in the
// scratch — its machines and their pending slices, message payload strings
// in the inboxes — so pooled scratch never pins a finished execution in
// memory.
// It touches only what such a run can have written: the first n entries
// of each table and, per inbox, the first n slots (a round delivers at
// most one message per sender). Whatever lies beyond was cleared when the
// larger run that grew it was reset, and sweeping it again would make
// every small run pay for the largest one the pool has seen.
func (s *scratch) reset(n int) {
	clear(s.machines[:n])
	clear(s.pending[:n])
	for i, inbox := range s.inboxes[:n] {
		clear(inbox[:min(n, cap(inbox))])
		s.inboxes[i] = inbox[:0]
	}
}

// Run executes the protocol under the fault plan and returns the recorded
// execution. Errors indicate harness misuse (bad config, a plan corrupting
// more than t processes or one outside Π, a machine sending to itself or
// twice to one peer) — never mere protocol-property violations, which are
// left in the trace for the checkers to find. A correct process cannot
// omit (see FaultPlan), so that is not among them.
func Run(cfg Config, factory Factory, plan FaultPlan) (*Execution, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.run(cfg, factory, plan)
}

// run is Run on the given scratch, which it leaves reset.
func (s *scratch) run(cfg Config, factory Factory, plan FaultPlan) (*Execution, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	runCount.Add(1)
	faulty := plan.Faulty()
	if faulty.Len() > cfg.T {
		return nil, fmt.Errorf("fault plan corrupts %d > t=%d processes", faulty.Len(), cfg.T)
	}

	s.grow(cfg.N)
	defer s.reset(cfg.N)

	// The corrupted mask, and with it the check that F ⊆ Π: a member the
	// pass over Π does not meet lies outside it.
	inside := 0
	for i := 0; i < cfg.N; i++ {
		s.corrupted[i] = faulty.Contains(proc.ID(i))
		if s.corrupted[i] {
			inside++
		}
	}
	if inside != faulty.Len() {
		return nil, fmt.Errorf("fault plan corrupts processes outside Π: %v", faulty)
	}

	machines := s.machines[:cfg.N]
	behArr := make([]Behavior, cfg.N)
	behaviors := make([]*Behavior, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := proc.ID(i)
		if m := plan.Byzantine(id); m != nil {
			if !s.corrupted[i] {
				return nil, fmt.Errorf("byzantine machine supplied for correct process %s", id)
			}
			machines[i] = m
		} else {
			machines[i] = factory(id, cfg.Proposals[i])
		}
		behArr[i] = Behavior{ID: id, Proposal: cfg.Proposals[i]}
		behaviors[i] = &behArr[i]
	}

	// Outgoing messages for the next round, per process.
	pending := s.pending
	for i := range machines {
		pending[i] = machines[i].Init()
	}

	e := &Execution{
		N:         cfg.N,
		T:         cfg.T,
		Faulty:    faulty,
		Behaviors: behaviors,
		Recording: cfg.Recording,
	}

	// The record each process's rounds are written into: its own fragment
	// list at RecordFull, a slice of one flat array holding the 4·n
	// per-round count series at RecordDecisions.
	full := cfg.Recording == RecordFull
	h := cfg.MaxRounds
	var leans []LeanBehavior
	if full {
		frags := make([]Fragment, cfg.N*h)
		for i := range behArr {
			behArr[i].Fragments = frags[i*h : i*h : (i+1)*h]
		}
	} else {
		counts := make([]int, 4*cfg.N*h)
		leans = make([]LeanBehavior, cfg.N)
		for i := range leans {
			c := counts[4*i*h : 4*(i+1)*h]
			leans[i] = LeanBehavior{
				Sent:           c[:0:h],
				SendOmitted:    c[h : h : 2*h],
				Received:       c[2*h : 2*h : 3*h],
				ReceiveOmitted: c[3*h : 3*h],
			}
			behArr[i].Lean = &leans[i]
		}
	}
	// at picks process i's round-r record, once per process and phase
	// rather than once per message: exactly one of the two is non-nil.
	at := func(i, r int) (*Fragment, *LeanBehavior) {
		if full {
			return &behArr[i].Fragments[r-1], nil
		}
		return nil, &leans[i]
	}

	inboxes, seen, corrupted := s.inboxes, s.seen, s.corrupted
	for r := 1; r <= cfg.MaxRounds; r++ {
		e.Rounds = r
		// The round's arena at RecordFull. Every message of the round is
		// sent at most once and received at most once, so twice the send
		// phase's total holds every Sent and Received list: each is
		// appended into the arena's spare capacity, which never runs out,
		// and carved off it.
		var arena []msg.Message
		if full {
			total := 0
			for i := 0; i < cfg.N; i++ {
				total += messages(pending[i], cfg.N)
			}
			arena = make([]msg.Message, 0, 2*total)
		}
		for i := 0; i < cfg.N; i++ {
			inboxes[i] = inboxes[i][:0]
			if full {
				behArr[i].Fragments = append(behArr[i].Fragments, Fragment{Round: r})
			} else {
				l := &leans[i]
				l.Sent, l.SendOmitted, l.Received, l.ReceiveOmitted = l.Sent[:r], l.SendOmitted[:r], l.Received[:r], l.ReceiveOmitted[:r]
			}
		}

		// Send phase.
		for i := 0; i < cfg.N; i++ {
			s.gen++
			f, l := at(i, r)
			if f != nil {
				f.Sent = arena[len(arena):]
			}
			// Each entry is expanded into its messages here, in place of
			// Expand: an entry to Everyone skips the sender, and every
			// message, expanded or not, passes the same three checks.
			for _, out := range pending[i] {
				first, count := receivers(out.To, cfg.N)
				for k := 0; k < count; k++ {
					to := first + proc.ID(k)
					if to == proc.ID(i) {
						if out.To == Everyone {
							continue
						}
						return nil, fmt.Errorf("round %d: %s sent to itself", r, proc.ID(i))
					}
					if to < 0 || int(to) >= cfg.N {
						return nil, fmt.Errorf("round %d: %s sent to unknown process %d", r, proc.ID(i), to)
					}
					if seen[to] == s.gen {
						return nil, fmt.Errorf("round %d: %s sent twice to %s", r, proc.ID(i), to)
					}
					seen[to] = s.gen
					m := msg.Message{Sender: proc.ID(i), Receiver: to, Round: r, Payload: out.Payload}
					if corrupted[i] && plan.SendOmit(m) {
						if f != nil {
							f.SendOmitted = append(f.SendOmitted, m)
						} else {
							l.SendOmitted[r-1]++
						}
						continue
					}
					if f != nil {
						f.Sent = append(f.Sent, m)
					} else {
						l.Sent[r-1]++
					}
					inboxes[to] = append(inboxes[to], m)
				}
			}
			if f != nil {
				arena, f.Sent = carve(arena, len(f.Sent))
			}
		}

		// Receive phase. Inboxes are already in delivery order: the send
		// phase visits senders in ascending ID order within one round, and
		// each sender contributes at most one message per inbox, so every
		// inbox is born sorted by (round, sender, receiver) — no sort
		// needed here. A correct receiver receives its whole inbox; a
		// corrupted one's receive-omitted messages are filtered out in
		// place, and what is left is what Step sees.
		for j := 0; j < cfg.N; j++ {
			f, l := at(j, r)
			if corrupted[j] {
				kept := inboxes[j][:0]
				for _, m := range inboxes[j] {
					if !plan.ReceiveOmit(m) {
						kept = append(kept, m)
					} else if f != nil {
						f.ReceiveOmitted = append(f.ReceiveOmitted, m)
					} else {
						l.ReceiveOmitted[r-1]++
					}
				}
				inboxes[j] = kept
			}
			if f != nil {
				f.Received = append(arena[len(arena):], inboxes[j]...)
				arena, f.Received = carve(arena, len(f.Received))
			} else {
				l.Received[r-1] = len(inboxes[j])
			}
		}

		// Compute phase: new state and next round's messages. Early stop is
		// sound only when every machine is quiescent AND decided: a quiescent
		// machine never sends again, but an undecided one might still decide
		// in a later (silent) round.
		allQuiet := true
		for i := 0; i < cfg.N; i++ {
			pending[i] = machines[i].Step(r, inboxes[i])
			v, decided := machines[i].Decision()
			if f, l := at(i, r); f != nil {
				if decided {
					f.Decided, f.Decision = true, v
				}
			} else {
				// The lean record mirrors the full one's readers: DecisionRound
				// is the first round ever decided, FinalDecision the last
				// round's state — so a (buggy) machine that un-decides is
				// undecided here too, with its DecidedRound kept.
				if decided && l.DecidedRound == 0 {
					l.DecidedRound = r
				}
				if !decided {
					v = msg.NoDecision
				}
				l.Decided, l.Decision = decided, v
			}
			if len(pending[i]) > 0 || !machines[i].Quiescent() || !decided {
				allQuiet = false
			}
		}

		if allQuiet && !cfg.DisableEarlyStop {
			e.Quiesced = true
			break
		}
	}
	return e, nil
}

// carve extends arena over the k messages just appended past its length
// and returns them as a list capped at its length, so that appending to
// the list copies it instead of writing over the next one; nil when k is 0.
func carve(arena []msg.Message, k int) ([]msg.Message, []msg.Message) {
	start := len(arena)
	arena = arena[:start+k]
	if k == 0 {
		return arena, nil
	}
	return arena, arena[start : start+k : start+k]
}

// Conforms is Trace.Conforms on e, refusing a lean execution.
func Conforms(e *Execution, factory Factory, skip proc.Set) error {
	t, err := e.Trace()
	if err != nil {
		return fmt.Errorf("conforms: %w", err)
	}
	return t.Conforms(factory, skip)
}

// Conforms re-runs the honest machine of every process not in skip against
// the received messages recorded in e and verifies that the recorded send
// behavior (sent ∪ send-omitted) matches the machine's output exactly, and
// that recorded decisions match the machine's decisions. This is the
// independent validity check for constructed executions: it proves the
// trace is genuinely generated by the protocol's state machines.
func (e *Trace) Conforms(factory Factory, skip proc.Set) error {
	// Scratch reused across processes and rounds: Conforms runs once per
	// campaign probe at the full tier, and rebuilding three slices per
	// process per round dominated its allocation profile.
	var outgoing, received []msg.Message
	var expanded []Outgoing
	byTo := make(map[proc.ID]string)
	for i := 0; i < e.N; i++ {
		id := proc.ID(i)
		if skip.Contains(id) {
			continue
		}
		b := e.Behaviors[i]
		machine := factory(id, b.Proposal)
		out := machine.Init()
		for r := 1; r <= len(b.Fragments); r++ {
			f := &b.Fragments[r-1]
			outgoing = append(outgoing[:0], f.Sent...)
			outgoing = append(outgoing, f.SendOmitted...)
			expanded = Expand(expanded[:0], out, e.N, id)
			if err := sameOutgoing(id, r, expanded, outgoing, byTo); err != nil {
				return err
			}
			received = append(received[:0], f.Received...)
			msg.Sort(received)
			out = machine.Step(r, received)
			v, ok := machine.Decision()
			if ok != f.Decided || (ok && v != f.Decision) {
				return fmt.Errorf("%s round %d: recorded decision (%q,%v) != machine decision (%q,%v)",
					id, r, f.Decision, f.Decided, v, ok)
			}
		}
	}
	return nil
}

// sameOutgoing checks the machine's emitted messages, expanded one entry
// per receiver, against the trace's recorded ones. byTo is caller-provided
// scratch, cleared on entry.
func sameOutgoing(id proc.ID, round int, out []Outgoing, recorded []msg.Message, byTo map[proc.ID]string) error {
	if len(out) != len(recorded) {
		return fmt.Errorf("%s round %d: machine emits %d messages, trace records %d",
			id, round, len(out), len(recorded))
	}
	clear(byTo)
	for _, o := range out {
		byTo[o.To] = o.Payload
	}
	for _, m := range recorded {
		p, ok := byTo[m.Receiver]
		if !ok {
			return fmt.Errorf("%s round %d: trace records message to %s the machine never emits",
				id, round, m.Receiver)
		}
		if p != m.Payload {
			return fmt.Errorf("%s round %d: payload to %s differs between machine and trace",
				id, round, m.Receiver)
		}
	}
	return nil
}
