// Package lowerbound turns the proof of Theorem 2 — any weak consensus
// algorithm needs at least t²/32 messages, even against omission faults —
// into an executable falsifier.
//
// Given any weak consensus protocol (as a deterministic machine factory
// with a claimed decision-round bound), Falsify replays the paper's
// construction:
//
//  1. Probe the fully-correct executions E_0 and E_1 (Weak Validity).
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
)

// Violation is a machine-checkable counterexample to weak consensus.
type Violation struct {
	// Kind is "agreement", "termination" or "weak-validity".
	Kind string
	// Exec is the certified execution.
	Exec *sim.Execution
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
	// Each probe is still a single-threaded sim.Run (the determinism
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

// context resolves the effective context of the run.
func (o Options) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

type falsifier struct {
	name    string
	factory sim.Factory
	bound   int
	n, t    int
	horizon int
	opts    Options
	report  *Report

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
		report: &Report{
			Protocol:  name,
			N:         n,
			T:         t,
			Threshold: Floor(t),
		},
	}
	if rec := obs.From(opts.Ctx); rec != nil {
		f.execs = rec.Counter("falsify_executions")
		f.sink = rec.Sink()
	}
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

// probe is a deferred simulation probe: a Promise resolving to the
// execution, computed on the worker pool (or inline when serial).
type probe = runner.Promise[*sim.Execution]

// fullFetch builds the compute step of the fully-correct execution with
// unanimous proposal v at the given recording tier. Fetches are pure —
// safe to run concurrently.
func (f *falsifier) fullFetch(v msg.Value, rec sim.Recording) func() (*sim.Execution, error) {
	return func() (*sim.Execution, error) {
		cfg := sim.Config{N: f.n, T: f.t, Proposals: msg.Uniform(f.n, v), MaxRounds: f.horizon, Recording: rec}
		return sim.Run(cfg, f.factory, sim.NoFaults{})
	}
}

// isolatedFetch builds the compute step of E_group(k)_v at the given
// recording tier.
func (f *falsifier) isolatedFetch(group proc.Set, k int, v msg.Value, rec sim.Recording) func() (*sim.Execution, error) {
	return func() (*sim.Execution, error) {
		return omission.RunIsolatedAt(f.n, f.t, f.factory, v, group, k, f.horizon, rec)
	}
}

// ensureFullIsolated upgrades a lean isolated probe to a full trace by
// re-running the same deterministic configuration at sim.RecordFull —
// which also runs the Appendix A.1.6 and Definition 1 validation the lean
// probe skipped. Executions that already carry full traces pass through.
func (f *falsifier) ensureFullIsolated(e *sim.Execution, group proc.Set, k int) (*sim.Execution, error) {
	if e.Recording == sim.RecordFull {
		return e, nil
	}
	return f.isolatedFetch(group, k, e.Behaviors[0].Proposal, sim.RecordFull)()
}

// leanNeedsFull reports whether analyzing the lean isolated probe e can
// require message identities: a correct process undecided or disagreeing
// (the violation certificate must be a full trace), or an isolated group
// member whose decision differs from the correct processes' common one (a
// Lemma 2 swap candidate, which needs the receive-omission sets). When it
// returns false, correctDecision and lemma2 provably touch only decisions.
func (f *falsifier) leanNeedsFull(e *sim.Execution, group proc.Set) bool {
	common, _, odd := e.Unanimity(e.Correct())
	if odd >= 0 {
		return true
	}
	for _, p := range group.Members() {
		if d, ok := e.Decision(p); !ok || d != common {
			return true
		}
	}
	return false
}

// inlineProbe wraps a single fetch as a lazily evaluated probe (no
// speculation, computed on first Wait).
func (f *falsifier) inlineProbe(fetch func() (*sim.Execution, error)) *probe {
	ps, _ := runner.Prefetch(f.opts.context(), 1, 1, func(int) (*sim.Execution, error) { return fetch() })
	return ps[0]
}

// runFull consumes the fully-correct execution with unanimous proposal v
// and checks Weak Validity and Termination on it. Probes arrive lean; a
// probe that is about to become a certificate is deterministically re-run
// at sim.RecordFull first, so every Violation.Exec is a full trace.
func (f *falsifier) runFull(v msg.Value, pr *probe) (*sim.Execution, error) {
	e, err := pr.Wait()
	if err != nil {
		return nil, fmt.Errorf("run E_%s: %w", v, err)
	}
	f.observe(fmt.Sprintf("E_%s (fully correct, unanimous %s)", v, v), e)
	for i := 0; i < f.n; i++ {
		d, ok := e.Decision(proc.ID(i))
		if ok && d == v {
			continue
		}
		if e.Recording != sim.RecordFull {
			if e, err = f.fullFetch(v, sim.RecordFull)(); err != nil {
				return nil, fmt.Errorf("run E_%s: full replay: %w", v, err)
			}
			d, ok = e.Decision(proc.ID(i))
		}
		if !ok {
			f.report.Violation = &Violation{
				Kind:     "termination",
				Exec:     e,
				Witness2: proc.ID(i),
				Note:     fmt.Sprintf("fully-correct unanimous-%s execution, horizon %d >= bound %d", v, f.horizon, f.bound),
			}
			return nil, nil
		}
		if d != v {
			f.report.Violation = &Violation{
				Kind:     "weak-validity",
				Exec:     e,
				Witness2: proc.ID(i),
				D2:       d,
				Note:     fmt.Sprintf("all processes are correct and propose %s", v),
			}
			return nil, nil
		}
	}
	return e, nil
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
// the execution plus the correct processes' common decision. A nil
// execution with nil error means a violation was recorded.
//
// Probes arrive lean (decisions and counts only). When every correct
// process and every isolated member decide one common value — the
// overwhelmingly common case for the protocols the construction grinds
// through — the analysis below provably never touches a message, and the
// lean trace suffices. Otherwise the probe is deterministically re-run at
// sim.RecordFull first (k is the isolation round, needed for the re-run).
func (f *falsifier) probeIsolated(label string, group proc.Set, k int, pr *probe) (*sim.Execution, msg.Value, error) {
	e, err := pr.Wait()
	if err != nil {
		return nil, msg.NoDecision, fmt.Errorf("probe %s: %w", label, err)
	}
	f.observe(label, e)
	if e.Recording != sim.RecordFull && f.leanNeedsFull(e, group) {
		if e, err = f.ensureFullIsolated(e, group, k); err != nil {
			return nil, msg.NoDecision, fmt.Errorf("probe %s: full replay: %w", label, err)
		}
	}
	bX, viol := f.correctDecision(e, label)
	if viol != nil {
		f.report.Violation = viol
		return nil, msg.NoDecision, nil
	}
	if viol := f.lemma2(e, group, bX, label); viol != nil {
		f.report.Violation = viol
		return nil, msg.NoDecision, nil
	}
	return e, bX, nil
}

// correctDecision extracts the common decision of the correct processes,
// or produces the execution itself as an agreement/termination
// certificate.
func (f *falsifier) correctDecision(e *sim.Execution, label string) (msg.Value, *Violation) {
	common, first, odd := e.Unanimity(e.Correct())
	if odd < 0 {
		return common, nil
	}
	d, ok := e.Decision(odd)
	if !ok {
		return msg.NoDecision, &Violation{
			Kind:     "termination",
			Exec:     e,
			Witness2: odd,
			Note:     fmt.Sprintf("%s: correct process undecided after %d rounds (bound %d)", label, e.Rounds, f.bound),
		}
	}
	return msg.NoDecision, &Violation{
		Kind:     "agreement",
		Exec:     e,
		Witness1: first,
		D1:       common,
		Witness2: odd,
		D2:       d,
		Note:     label,
	}
}

// lemma2 applies the swap argument: find an isolated process p in group Y
// with fewer than t/2 receive-omitted messages from correct senders whose
// decision differs from bX (or is absent); swap its receive-omissions into
// send-omissions. If the resulting execution has at most t faults it is a
// certificate. Returns nil if no candidate qualifies (the Lemma 2
// conclusion holds — the protocol paid enough messages here).
func (f *falsifier) lemma2(e *sim.Execution, group proc.Set, bX msg.Value, label string) *Violation {
	correct := e.Correct()
	for _, p := range group.Members() {
		d, decided := e.Decision(p)
		if decided && d == bX {
			continue
		}
		mxp := len(omission.MessagesFromTo(e, correct, p))
		if 2*mxp >= f.t {
			f.logf("%s: %s disagrees (decided=%v %q) but receive-omits %d >= t/2 messages from correct senders — swap inapplicable",
				label, p, decided, d, mxp)
			continue
		}
		swapped, err := omission.SwapOmission(e, p)
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
		}
	}
	return nil
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

	workers := runner.Workers(f.opts.Parallelism)

	// Wave 1: the four probes of Steps 1-2 have no mutual dependencies.
	// All probe waves run at the lean tier; consumers upgrade to full
	// traces (deterministic re-runs) only when a certificate, a Lemma 2
	// candidate, or a merge input demands message identities.
	wave1 := []func() (*sim.Execution, error){
		f.fullFetch(msg.Zero, sim.RecordDecisions),
		f.fullFetch(msg.One, sim.RecordDecisions),
		f.isolatedFetch(part.B, 1, msg.Zero, sim.RecordDecisions),
		f.isolatedFetch(part.C, 1, msg.One, sim.RecordDecisions),
	}
	p1, cancel1 := runner.Prefetch(f.opts.context(), workers, len(wave1), func(i int) (*sim.Execution, error) {
		return wave1[i]()
	})
	defer cancel1()

	// Step 1: Weak Validity on the fully-correct executions.
	e0, err := f.runFull(msg.Zero, p1[0])
	if err != nil || f.report.Violation != nil {
		return err
	}
	e1, err := f.runFull(msg.One, p1[1])
	if err != nil || f.report.Violation != nil {
		return err
	}

	// Step 2: the default bit (Lemma 3 on E_B(1)_0 and E_C(1)_1).
	eB1, dB, err := f.probeIsolated("E_B(1)_0", part.B, 1, p1[2])
	if err != nil || f.report.Violation != nil {
		return err
	}
	eC1, dC, err := f.probeIsolated("E_C(1)_1", part.C, 1, p1[3])
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
		return f.mergeAndExtract(part, eB1, 1, eC1, 1)
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
	rMax := decisionRound(eV)
	f.logf("all processes decide by round %d in E_%s", rMax, v)

	pB, cancelB := runner.Prefetch(f.opts.context(), workers, rMax+1, func(i int) (*sim.Execution, error) {
		return f.isolatedFetch(part.B, i+1, v, sim.RecordDecisions)()
	})
	defer cancelB()

	prev, prevDecision, err := f.probeIsolated(fmt.Sprintf("E_B(1)_%s", v), part.B, 1, pB[0])
	if err != nil || f.report.Violation != nil {
		return err
	}
	if prevDecision == v {
		// A does not decide the default under round-1 isolation of B in the
		// all-v family, yet decides d in E_C(1)_1: Lemma 3 pair (k=1, k=1).
		f.logf("A decides %q in E_B(1)_%s but %q in E_C(1)_1: merging the round-1 pair", prevDecision, v, d)
		eCpair := eC1
		return f.mergeAndExtract(part, prev, 1, eCpair, 1)
	}

	critical := -1
	var eBR, eBR1 *sim.Execution
	for k := 2; k <= rMax+1; k++ {
		cur, curDecision, err := f.probeIsolated(fmt.Sprintf("E_B(%d)_%s", k, v), part.B, k, pB[k-1])
		if err != nil || f.report.Violation != nil {
			return err
		}
		if curDecision != prevDecision {
			critical = k - 1
			eBR, eBR1 = prev, cur
			f.logf("critical round R=%d: A decides %q in E_B(%d)_%s and %q in E_B(%d)_%s (Lemma 4)",
				critical, prevDecision, critical, v, curDecision, k, v)
			break
		}
		prev, prevDecision = cur, curDecision
	}
	if critical < 0 {
		return fmt.Errorf("falsify %s: no critical round found up to %d although E_%s decides %q at isolation-free horizon — "+
			"this contradicts Lemma 4; engine or protocol nondeterminism suspected", f.name, rMax+1, v, v)
	}
	_ = eBR

	// Step 4: run E_C(R)_v and merge with E_B(R+1)_v (Lemma 5). This probe
	// depends on the critical round, so it cannot be prefetched.
	eCR, dCR, err := f.probeIsolated(fmt.Sprintf("E_C(%d)_%s", critical, v), part.C, critical,
		f.inlineProbe(f.isolatedFetch(part.C, critical, v, sim.RecordDecisions)))
	if err != nil || f.report.Violation != nil {
		return err
	}
	f.logf("A decides %q in E_C(%d)_%s", dCR, critical, v)
	f.logf("merging E_B(%d)_%s with E_C(%d)_%s (Definition 2: |k1-k2|=1, equal proposals)", critical+1, v, critical, v)
	return f.mergeAndExtract(part, eBR1, critical+1, eCR, critical)
}

// mergeAndExtract builds the merged execution and extracts the Lemma 2
// violation from whichever isolated group disagrees with group A. Merging
// checks the merged views against the sources' received messages, so lean
// inputs are first upgraded to full ones by deterministic re-runs.
func (f *falsifier) mergeAndExtract(part proc.Partition, eB *sim.Execution, kB int, eC *sim.Execution, kC int) error {
	var err error
	if eB, err = f.ensureFullIsolated(eB, part.B, kB); err != nil {
		return fmt.Errorf("falsify %s: upgrade E_B(%d): %w", f.name, kB, err)
	}
	if eC, err = f.ensureFullIsolated(eC, part.C, kC); err != nil {
		return fmt.Errorf("falsify %s: upgrade E_C(%d): %w", f.name, kC, err)
	}
	merged, err := omission.Merge(omission.MergeSpec{Part: part, EB: eB, KB: kB, EC: eC, KC: kC}, f.factory, f.horizon)
	if err != nil {
		return fmt.Errorf("falsify %s: merge: %w", f.name, err)
	}
	f.observe(fmt.Sprintf("merged E_B(%d),C(%d)", kB, kC), merged)

	bA, viol := f.correctDecision(merged, "merged execution")
	if viol != nil {
		f.report.Violation = viol
		return nil
	}
	f.logf("group A decides %q in the merged execution", bA)
	for _, group := range []struct {
		name string
		set  proc.Set
	}{{"B", part.B}, {"C", part.C}} {
		if viol := f.lemma2(merged, group.set, bA, "merged/"+group.name); viol != nil {
			f.report.Violation = viol
			return nil
		}
	}
	f.logf("no Lemma 2 candidate in the merged execution: the protocol paid enough messages for every isolated process to stay informed")
	return nil
}
