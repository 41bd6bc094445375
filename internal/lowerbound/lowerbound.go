// Package lowerbound turns the proof of Theorem 2 — any weak consensus
// algorithm needs at least t²/32 messages, even against omission faults —
// into an executable falsifier.
//
// Given any weak consensus protocol (as a deterministic machine factory
// with a claimed decision-round bound), Falsify replays the paper's
// construction:
//
//  1. Probe the fully-correct executions E_0 and E_1. They are the
//     isolation executions E_∅(1)_0 and E_∅(1)_1, judged like every other
//     probe by the campaign verdict (adversary.CheckExecution) with Weak
//     Validity, which binds only here, where nobody is faulty.
//  2. Probe E_B(1)_0 and E_C(1)_1 and learn the "default bit" d that group
//     A decides whenever faults appear at round 1 (Lemma 3).
//  3. Interpolate: scan E_B(k)_v for v = 1-d until group A's decision
//     flips from d to v at some critical round R+1 (Lemma 4).
//  4. Merge E_B(R+1)_v with E_C(R)_v (Algorithm 5 / Lemma 16): the merged
//     execution forces a majority of B toward v and a majority of C toward
//     d, so group A must disagree with one of them.
//  5. Apply the Lemma 2 swap argument: pick an isolated process with fewer
//     than t/2 receive-omissions from correct senders that disagrees with
//     (or never reaches) A's decision, and swap its receive-omissions into
//     send-omissions (Algorithm 4). The result is a *valid* execution with
//     at most t faults in which two correct processes disagree, a correct
//     process never decides, or Weak Validity breaks.
//
// Every certificate is re-validated from scratch: the execution satisfies
// the Appendix A.1.6 guarantees, every process's recorded behavior is
// reproduced by re-running its machine (sim.Conforms), and the violation
// itself is re-read off the trace. For sound (necessarily Ω(t²)-message)
// protocols, the construction finds no such process and the falsifier
// reports the observed message complexities instead — which the theorem
// says must reach t²/32 somewhere along the way.
package lowerbound

import (
	"context"
	"fmt"

	"expensive/internal/adversary"
	"expensive/internal/experiments/runner"
	"expensive/internal/msg"
	"expensive/internal/obs"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// Violation is a machine-checkable counterexample to weak consensus.
type Violation struct {
	// Kind is "agreement", "termination" or "weak-validity".
	Kind string
	// Exec is the certified execution.
	Exec *sim.Trace
	// Witness1 is a correct process with decision D1.
	Witness1 proc.ID
	D1       msg.Value
	// Witness2 is a correct process that decided D2 ("agreement"), never
	// decided ("termination"), or decided D2 violating unanimity
	// ("weak-validity").
	Witness2 proc.ID
	D2       msg.Value
	// Note narrates how the construction reached this certificate.
	Note string
}

func (v *Violation) String() string {
	switch v.Kind {
	case "termination":
		return fmt.Sprintf("termination violation: correct %s never decides (%s)", v.Witness2, v.Note)
	case "weak-validity":
		return fmt.Sprintf("weak validity violation: correct %s decides %q in a unanimous fault-free execution (%s)",
			v.Witness2, v.D2, v.Note)
	default:
		return fmt.Sprintf("agreement violation: correct %s decides %q, correct %s decides %q (%s)",
			v.Witness1, v.D1, v.Witness2, v.D2, v.Note)
	}
}

// Report is the falsifier's outcome for one protocol and one (n, t).
type Report struct {
	Protocol string
	N, T     int
	// Threshold is the paper's bound, Floor(T).
	Threshold int
	// MaxCorrectMessages is the largest message complexity observed across
	// all probe executions.
	MaxCorrectMessages int
	// Executions counts the probe executions constructed.
	Executions int
	// Violation is non-nil when the construction produced a counterexample.
	Violation *Violation
	// Log narrates the construction, step by step.
	Log []string
}

// Broken reports whether the protocol was falsified.
func (r *Report) Broken() bool { return r.Violation != nil }

// Options tune the falsifier.
type Options struct {
	// DisableMerge skips steps 3-5 (the Lemma 3/4/5 machinery), keeping
	// only the direct Lemma 2 attempts on isolation probes. This is the
	// ablation showing the merge argument is load-bearing.
	DisableMerge bool
	// Parallelism fans out independent simulation probes — the
	// fully-correct pair E_0/E_1, the default-bit pair E_B(1)_0/E_C(1)_1,
	// and the Lemma 4 interpolation family E_B(k)_v — across a worker
	// pool. <= 0 means runtime.NumCPU(); 1 forces the fully serial path.
	// Each probe is still one single-threaded engine run (the determinism
	// contract); probe *analysis* stays sequential in construction order,
	// so the report is byte-identical at every parallelism level. Parallel
	// runs may merely compute speculative probes the serial path would
	// have skipped. The factory must tolerate concurrent machine
	// construction when Parallelism != 1 (every factory in this module
	// does — machines share no mutable state).
	Parallelism int
	// Ctx cancels the construction between (and, in parallel mode, inside)
	// probe waves; nil means context.Background().
	Ctx context.Context
}

type falsifier struct {
	name    string
	factory sim.Factory
	bound   int
	n, t    int
	horizon int
	opts    Options
	report  *Report
	// weak is Weak Validity at (n, t), the verdict of correctDecision.
	weak validity.Check

	// Telemetry handles, nil when no recorder rides on opts.Ctx. Strictly
	// a side channel: the report (executions, log, violation) depends only
	// on the construction, never on these.
	execs *obs.Counter // falsify_executions: probe executions observed
	sink  *obs.Sink
}

// Floor is Theorem 2's bound: any weak consensus protocol tolerating t
// omission faults has an execution in which correct processes send at
// least t²/32 messages (integer floor).
func Floor(t int) int { return t * t / 32 }

// Falsify runs the Theorem 2 construction against a weak consensus
// protocol. factory builds the honest machines; roundBound is the
// protocol's claimed decision round for correct processes in every
// execution with at most t faults. Errors indicate harness failures, not
// protocol failures — those are returned inside the report.
func Falsify(name string, factory sim.Factory, roundBound, n, t int, opts Options) (*Report, error) {
	if t < 8 || t >= n {
		return nil, fmt.Errorf("falsify: need 8 <= t < n (partition groups of t/4), got n=%d t=%d", n, t)
	}
	f := &falsifier{
		name:    name,
		factory: factory,
		bound:   roundBound,
		n:       n,
		t:       t,
		horizon: sim.Horizon(roundBound),
		opts:    opts,
		weak:    validity.AdmissibleCheck(validity.Weak(n, t)),
		report: &Report{
			Protocol:  name,
			N:         n,
			T:         t,
			Threshold: Floor(t),
		},
	}
	rec := obs.From(opts.Ctx)
	f.execs, f.sink = rec.Counter("falsify_executions"), rec.Sink()
	if f.sink != nil {
		f.sink.Emit("falsify-start", "protocol", name, "n", n, "t", t, "round_bound", roundBound)
	}
	if err := f.run(); err != nil {
		return nil, err
	}
	if f.sink != nil {
		f.sink.Emit("falsify-end",
			"protocol", name, "executions", f.report.Executions,
			"max_correct_messages", f.report.MaxCorrectMessages,
			"threshold", f.report.Threshold, "broken", f.report.Broken())
	}
	return f.report, nil
}

func (f *falsifier) logf(format string, args ...any) {
	f.report.Log = append(f.report.Log, fmt.Sprintf(format, args...))
}

func (f *falsifier) observe(label string, e *sim.Execution) {
	f.report.Executions++
	f.execs.Inc()
	c := adversary.CostOf(e)
	if c.Messages > f.report.MaxCorrectMessages {
		f.report.MaxCorrectMessages = c.Messages
	}
	f.logf("%s: %d rounds recorded, %d messages sent by correct processes (threshold t²/32 = %d)",
		label, c.Rounds, c.Messages, f.report.Threshold)
}

// isolated is one execution E_group(k)_v of Table 1. Every probe runs it
// lean (decisions and counts only); trace holds its full trace once a
// certificate, a Lemma 2 candidate or a merge has asked for it.
type isolated struct {
	group proc.Set
	k     int
	v     msg.Value
	lean  *runner.Promise[*sim.Execution]
	trace *sim.Trace
}

// prefetch schedules the lean runs of xs on the worker pool (inline on
// first Wait when serial) and returns the cancel function that joins it.
func (f *falsifier) prefetch(xs ...*isolated) context.CancelFunc {
	ps, cancel := runner.Prefetch(f.opts.Ctx, runner.Workers(f.opts.Parallelism), len(xs), func(i int) (*sim.Execution, error) {
		x := xs[i]
		cfg := sim.Config{N: f.n, T: f.t, Proposals: msg.Uniform(f.n, x.v), MaxRounds: f.horizon, Recording: sim.RecordDecisions}
		e, err := sim.Run(cfg, f.factory, omission.Isolation(x.group, x.k))
		if err != nil {
			return nil, fmt.Errorf("run isolated %v from round %d: %w", x.group, x.k, err)
		}
		return e, nil
	})
	for i, x := range xs {
		x.lean = ps[i]
	}
	return cancel
}

// full returns x's full trace, re-running the same deterministic
// configuration through omission.RunIsolated — which also checks Appendix
// A.1.6 and Definition 1 — the first time it is asked for.
func (f *falsifier) full(x *isolated) (*sim.Trace, error) {
	if x.trace != nil {
		return x.trace, nil
	}
	var err error
	x.trace, err = omission.RunIsolated(f.n, f.t, f.factory, x.v, x.group, x.k, f.horizon)
	return x.trace, err
}

// decisionRound returns the first round by which every process of e has
// decided. It reads only decision trajectories, so it works at both
// recording tiers.
func decisionRound(e *sim.Execution) int {
	maxR := 1
	for _, b := range e.Behaviors {
		r := b.DecisionRound()
		if r == 0 {
			r = b.RoundsRecorded()
		}
		if r > maxR {
			maxR = r
		}
	}
	return maxR
}

// probeIsolated consumes E_G(k)_v, checks the correct processes agree,
// tries the direct Lemma 2 argument on the isolated group, and returns
// the correct processes' common decision. A violation is recorded in the
// report with a nil error.
//
// The verdict and Lemma 2's decisions are read off the lean run. When
// every correct process and every isolated member decide one common value
// — the overwhelmingly common case for the protocols the construction
// grinds through — nothing more is needed; a certificate or a Lemma 2
// candidate fetches the full trace first.
func (f *falsifier) probeIsolated(label string, x *isolated) (msg.Value, error) {
	e, err := x.lean.Wait()
	if err != nil {
		return msg.NoDecision, fmt.Errorf("probe %s: %w", label, err)
	}
	f.observe(label, e)
	bX, viol := f.correctDecision(e, label)
	if viol == nil {
		viol, err = f.lemma2(e, x, bX, label)
	} else {
		viol.Exec, err = f.full(x)
	}
	if err != nil {
		return msg.NoDecision, fmt.Errorf("probe %s: full replay: %w", label, err)
	}
	if viol != nil {
		f.report.Violation = viol
		return msg.NoDecision, nil
	}
	return bX, nil
}

// correctDecision extracts the common decision of the correct processes,
// or a violation to which the caller attaches e's full trace. The verdict
// is the campaign's, adversary.CheckExecution with Weak Validity, which is
// vacuous on every probe but the fully-correct E_0 and E_1.
func (f *falsifier) correctDecision(e *sim.Execution, label string) (msg.Value, *Violation) {
	v := adversary.CheckExecution(e, e.Proposals(), f.weak, nil)
	if v == nil {
		common, _, _ := e.Unanimity(e.Correct())
		return common, nil
	}
	viol := &Violation{Kind: v.Kind, Witness1: v.Witness1, D1: v.D1, Witness2: v.Witness2, D2: v.D2, Note: label}
	switch v.Kind {
	case "termination":
		viol.Note = fmt.Sprintf("%s: correct process undecided after %d rounds (bound %d)", label, e.Rounds, f.bound)
	case "validity":
		viol.Kind = "weak-validity"
	}
	return msg.NoDecision, viol
}

// lemma2 applies the swap argument: find an isolated process p in x's
// group with fewer than t/2 receive-omitted messages from correct senders
// whose decision differs from bX (or is absent); swap its receive-omissions
// into send-omissions. If the resulting execution has at most t faults it
// is a certificate. Returns nil if no candidate qualifies (the Lemma 2
// conclusion holds — the protocol paid enough messages here). Decisions
// are read off e, x's run; its full trace is fetched only once a
// candidate needs its messages, and only that fetch can fail.
func (f *falsifier) lemma2(e *sim.Execution, x *isolated, bX msg.Value, label string) (*Violation, error) {
	correct := e.Correct()
	for _, p := range x.group.Members() {
		d, decided := e.Decision(p)
		if decided && d == bX {
			continue
		}
		full, err := f.full(x)
		if err != nil {
			return nil, err
		}
		mxp := len(omission.MessagesFromTo(full, correct, p))
		if 2*mxp >= f.t {
			f.logf("%s: %s disagrees (decided=%v %q) but receive-omits %d >= t/2 messages from correct senders — swap inapplicable",
				label, p, decided, d, mxp)
			continue
		}
		swapped, err := omission.SwapOmission(full, p)
		if err != nil {
			f.logf("%s: swap_omission(%s) inapplicable: %v", label, p, err)
			continue
		}
		if swapped.Faulty.Len() > f.t {
			f.logf("%s: swap_omission(%s) yields %d > t faulty processes", label, p, swapped.Faulty.Len())
			continue
		}
		// A correct witness from the original correct set survives the swap.
		witness := proc.ID(-1)
		for _, x := range correct.Members() {
			if !swapped.Faulty.Contains(x) {
				witness = x
				break
			}
		}
		if witness < 0 {
			f.logf("%s: swap_omission(%s) left no correct witness", label, p)
			continue
		}
		kind := "agreement"
		note := fmt.Sprintf("%s: Lemma 2 swap on %s (|M_X→p|=%d < t/2=%d)", label, p, mxp, f.t/2)
		if !decided {
			kind = "termination"
		}
		return &Violation{
			Kind:     kind,
			Exec:     swapped,
			Witness1: witness,
			D1:       bX,
			Witness2: p,
			D2:       d,
			Note:     note,
		}, nil
	}
	return nil, nil
}

// run drives the full construction. Probe executions are *computed* on
// the worker pool (speculatively, when Parallelism != 1) but *analyzed*
// strictly in construction order, so the report — observations, log
// lines, violations — is identical at every parallelism level.
func (f *falsifier) run() error {
	part, err := proc.NewPartition(f.n, f.t)
	if err != nil {
		return err
	}
	f.logf("partition: |A|=%d |B|=%d |C|=%d (t/4 = %d)", part.A.Len(), part.B.Len(), part.C.Len(), f.t/4)

	// Wave 1: the four probes of Steps 1-2 have no mutual dependencies.
	// E_0 and E_1 are E_∅(1)_0 and E_∅(1)_1: nobody is isolated.
	e0 := &isolated{group: proc.Set{}, k: 1, v: msg.Zero}
	e1 := &isolated{group: proc.Set{}, k: 1, v: msg.One}
	eB1 := &isolated{group: part.B, k: 1, v: msg.Zero}
	eC1 := &isolated{group: part.C, k: 1, v: msg.One}
	defer f.prefetch(e0, e1, eB1, eC1)()

	// Step 1: Termination, Agreement and Weak Validity on the fully-correct
	// executions.
	if _, err := f.probeIsolated("E_0 (fully correct, unanimous 0)", e0); err != nil || f.report.Violation != nil {
		return err
	}
	if _, err := f.probeIsolated("E_1 (fully correct, unanimous 1)", e1); err != nil || f.report.Violation != nil {
		return err
	}

	// Step 2: the default bit (Lemma 3 on E_B(1)_0 and E_C(1)_1).
	dB, err := f.probeIsolated("E_B(1)_0", eB1)
	if err != nil || f.report.Violation != nil {
		return err
	}
	dC, err := f.probeIsolated("E_C(1)_1", eC1)
	if err != nil || f.report.Violation != nil {
		return err
	}
	f.logf("A decides %q in E_B(1)_0 and %q in E_C(1)_1", dB, dC)

	if f.opts.DisableMerge {
		f.logf("merge disabled (ablation): stopping after direct isolation probes")
		return nil
	}

	if dB != dC {
		// Lemma 3 is already violated: merge the round-1 pair directly.
		f.logf("default bits differ: merging E_B(1)_0 and E_C(1)_1 (Definition 2, k1=k2=1)")
		return f.mergeAndExtract(part, eB1, eC1)
	}
	d := dB
	if !msg.IsBit(d) {
		f.logf("correct processes decide non-binary value %q; treating the all-%s family as the interpolation family", d, msg.Zero)
		d = msg.One
	}
	v := msg.FlipBit(d)
	f.logf("default bit d=%q; interpolating over the unanimous-%s family (Lemma 4)", d, v)

	// Step 3: Lemma 4 interpolation over E_B(k)_v. The probes of the whole
	// family are mutually independent — only the *scan* for the critical
	// round is sequential — so they are prefetched as one wave; the scan
	// consumes them in order and cancels whatever lies beyond the critical
	// round.
	eV := e0
	if v == msg.One {
		eV = e1
	}
	lean, _ := eV.lean.Wait() // resolved by Step 1
	rMax := decisionRound(lean)
	f.logf("all processes decide by round %d in E_%s", rMax, v)

	eB := make([]*isolated, rMax+1) // eB[i] is E_B(i+1)_v
	for i := range eB {
		eB[i] = &isolated{group: part.B, k: i + 1, v: v}
	}
	defer f.prefetch(eB...)()

	prevDecision, err := f.probeIsolated(fmt.Sprintf("E_B(1)_%s", v), eB[0])
	if err != nil || f.report.Violation != nil {
		return err
	}
	if prevDecision == v {
		// A does not decide the default under round-1 isolation of B in the
		// all-v family, yet decides d in E_C(1)_1: Lemma 3 pair (k=1, k=1).
		f.logf("A decides %q in E_B(1)_%s but %q in E_C(1)_1: merging the round-1 pair", prevDecision, v, d)
		return f.mergeAndExtract(part, eB[0], eC1)
	}

	critical := -1
	for k := 2; k <= rMax+1; k++ {
		curDecision, err := f.probeIsolated(fmt.Sprintf("E_B(%d)_%s", k, v), eB[k-1])
		if err != nil || f.report.Violation != nil {
			return err
		}
		if curDecision != prevDecision {
			critical = k - 1
			f.logf("critical round R=%d: A decides %q in E_B(%d)_%s and %q in E_B(%d)_%s (Lemma 4)",
				critical, prevDecision, critical, v, curDecision, k, v)
			break
		}
	}
	if critical < 0 {
		return fmt.Errorf("falsify %s: no critical round found up to %d although E_%s decides %q at isolation-free horizon — "+
			"this contradicts Lemma 4; engine or protocol nondeterminism suspected", f.name, rMax+1, v, v)
	}

	// Step 4: run E_C(R)_v and merge with E_B(R+1)_v (Lemma 5). This probe
	// depends on the critical round, so it is scheduled alone once R is
	// known.
	eCR := &isolated{group: part.C, k: critical, v: v}
	defer f.prefetch(eCR)()
	dCR, err := f.probeIsolated(fmt.Sprintf("E_C(%d)_%s", critical, v), eCR)
	if err != nil || f.report.Violation != nil {
		return err
	}
	f.logf("A decides %q in E_C(%d)_%s", dCR, critical, v)
	f.logf("merging E_B(%d)_%s with E_C(%d)_%s (Definition 2: |k1-k2|=1, equal proposals)", critical+1, v, critical, v)
	return f.mergeAndExtract(part, eB[critical], eCR)
}

// mergeAndExtract builds the merged execution of xB and xC and extracts
// the Lemma 2 violation from whichever isolated group disagrees with
// group A. Merging checks the merged views against the sources' received
// messages, so it takes both full traces.
func (f *falsifier) mergeAndExtract(part proc.Partition, xB, xC *isolated) error {
	eB, err := f.full(xB)
	if err != nil {
		return fmt.Errorf("falsify %s: upgrade E_B(%d): %w", f.name, xB.k, err)
	}
	eC, err := f.full(xC)
	if err != nil {
		return fmt.Errorf("falsify %s: upgrade E_C(%d): %w", f.name, xC.k, err)
	}
	merged, err := omission.Merge(omission.MergeSpec{Part: part, EB: eB, KB: xB.k, EC: eC, KC: xC.k}, f.factory, f.horizon)
	if err != nil {
		return fmt.Errorf("falsify %s: merge: %w", f.name, err)
	}
	f.observe(fmt.Sprintf("merged E_B(%d),C(%d)", xB.k, xC.k), merged.Execution)

	bA, viol := f.correctDecision(merged.Execution, "merged execution")
	if viol != nil {
		viol.Exec = merged
		f.report.Violation = viol
		return nil
	}
	f.logf("group A decides %q in the merged execution", bA)
	for _, g := range []struct { // each x holds its trace, so lemma2 cannot fail
		name string
		x    *isolated
	}{{"B", &isolated{group: part.B, trace: merged}}, {"C", &isolated{group: part.C, trace: merged}}} {
		if viol, _ := f.lemma2(merged.Execution, g.x, bA, "merged/"+g.name); viol != nil {
			f.report.Violation = viol
			return nil
		}
	}
	f.logf("no Lemma 2 candidate in the merged execution: the protocol paid enough messages for every isolated process to stay informed")
	return nil
}
