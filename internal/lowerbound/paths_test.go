package lowerbound

import (
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// detectorMachine is the "default on detected misbehavior" protocol shape
// the paper's introduction highlights as the obstacle for classical proof
// techniques: every round each process broadcasts a heartbeat carrying its
// proposal and a fault flag; any missing heartbeat or raised flag flips
// the flag; at round rStar the process decides 1 on any anomaly and the
// unanimous proposal otherwise.
//
// Against this protocol the falsifier must walk the *entire* §3
// construction: both round-1 isolations yield the default 1 (Lemma 3), the
// all-0 family flips at a late critical round (Lemma 4), and the final
// merge (Lemma 5) runs — after which Lemma 2 finds no candidate because
// the protocol pays Θ(n²) messages per round. The test pins that the deep
// path executes and correctly certifies the budget.
type detectorMachine struct {
	n, rStar int
	id       proc.ID
	proposal msg.Value

	flag     bool
	sawFlag  bool
	values   map[msg.Value]bool
	heard    int
	decided  bool
	decision msg.Value
	done     bool
}

func detectorFactory(n, rStar int) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &detectorMachine{n: n, rStar: rStar, id: id, proposal: proposal,
			values: map[msg.Value]bool{proposal: true}}
	}
}

func (m *detectorMachine) hb() []sim.Outgoing {
	flag := "0"
	if m.flag || m.sawFlag {
		flag = "1"
	}
	body := "hb|" + flag + "|" + string(m.proposal)
	out := make([]sim.Outgoing, 0, m.n-1)
	for p := proc.ID(0); p < proc.ID(m.n); p++ {
		if p != m.id {
			out = append(out, sim.Outgoing{To: p, Payload: body})
		}
	}
	return out
}

func (m *detectorMachine) Init() []sim.Outgoing { return m.hb() }

func (m *detectorMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.done {
		return nil
	}
	if len(received) != m.n-1 {
		m.flag = true
	}
	for _, rm := range received {
		parts := strings.SplitN(rm.Payload, "|", 3)
		if len(parts) != 3 || parts[0] != "hb" {
			m.flag = true
			continue
		}
		if parts[1] == "1" {
			m.sawFlag = true
		}
		m.values[msg.Value(parts[2])] = true
		m.heard++
	}
	if round >= m.rStar {
		m.decision = msg.One
		if !m.flag && !m.sawFlag && len(m.values) == 1 && m.proposal == msg.Zero {
			m.decision = msg.Zero
		}
		// Unanimous-1 fault-free executions decide 1 via the default, which
		// satisfies Weak Validity for the all-1 case.
		m.decided, m.done = true, true
		return nil
	}
	return m.hb()
}

func (m *detectorMachine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.decision, true
}

func (m *detectorMachine) Quiescent() bool { return m.done }

func TestFalsifierWalksFullInterpolation(t *testing.T) {
	const rStar = 5
	factory := detectorFactory(testN, rStar)
	rep := mustFalsify(t, "detector", factory, rStar, Options{})
	if rep.Broken() {
		t.Fatalf("detector is quadratic; the construction must not break it: %v", rep.Verdict())
	}
	joined := strings.Join(rep.Log, "\n")
	for _, want := range []string{
		"interpolating over the unanimous-0 family", // Lemma 4 family selected
		"critical round R=",                         // the flip was found
		"merging E_B(",                              // Lemma 5 merge executed
		"no Lemma 2 candidate",                      // pigeonhole correctly empty
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("log missing %q:\n%s", want, joined)
		}
	}
	if rep.MaxCorrectMessages < rep.Threshold {
		t.Errorf("detector sent %d < t²/32 = %d messages yet survived — contradicts Theorem 2",
			rep.MaxCorrectMessages, rep.Threshold)
	}
}

// TestInterpolationRunBudget pins the serial run count of the deep path:
// the detector's interpolation family is the unanimous-0 one, whose
// E_B(1)_0 is the round-1 probe Step 2 already ran at the full tier, so
// that probe runs once for two executions; the two merge inputs, E_B(R+1)_0
// and E_C(R)_0, ran lean and run again at the full tier. Every other
// execution runs once.
func TestInterpolationRunBudget(t *testing.T) {
	before := sim.Runs()
	rep := mustFalsify(t, "detector", detectorFactory(testN, 5), 5, Options{Parallelism: 1})
	if got, want := sim.Runs()-before, int64(rep.Executions)-1+2; got != want {
		t.Errorf("%d simulator runs for %d executions, want %d", got, rep.Executions, want)
	}
}

// constantMachine ignores everything and decides k: a Weak Validity
// violation the falsifier must catch at the very first probe.
type constantMachine struct {
	k       msg.Value
	decided bool
}

func (m *constantMachine) Init() []sim.Outgoing { return nil }
func (m *constantMachine) Step(round int, _ []msg.Message) []sim.Outgoing {
	if round == 1 {
		m.decided = true
	}
	return nil
}
func (m *constantMachine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.k, true
}
func (m *constantMachine) Quiescent() bool { return true }

func TestFalsifierCatchesWeakValidityViolation(t *testing.T) {
	factory := func(proc.ID, msg.Value) sim.Machine { return &constantMachine{k: msg.One} }
	rep := mustFalsify(t, "constant-1", factory, 1, Options{})
	if !rep.Broken() || rep.Violation.Kind != "validity" || !strings.Contains(rep.Verdict(), "weak validity violation") {
		t.Fatalf("expected a weak validity violation, got %s", rep.Verdict())
	}
	if err := rep.Recheck(factory, 1); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}

// muteMachine never decides: a Termination violation at the first probe.
type muteMachine struct{}

func (muteMachine) Init() []sim.Outgoing                   { return nil }
func (muteMachine) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (muteMachine) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (muteMachine) Quiescent() bool                        { return true }

func TestFalsifierCatchesTerminationViolation(t *testing.T) {
	factory := func(proc.ID, msg.Value) sim.Machine { return muteMachine{} }
	rep := mustFalsify(t, "mute", factory, 1, Options{})
	if !rep.Broken() || rep.Violation.Kind != "termination" {
		t.Fatalf("expected termination violation, got %v", rep.Verdict())
	}
	if err := rep.Recheck(factory, 1); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}

// halfSplitMachine decides its own id's parity — an agreement violation
// among correct processes inside the very first fully-correct probe.
type halfSplitMachine struct {
	id      proc.ID
	decided bool
}

func (m *halfSplitMachine) Init() []sim.Outgoing { return nil }
func (m *halfSplitMachine) Step(round int, _ []msg.Message) []sim.Outgoing {
	if round == 1 {
		m.decided = true
	}
	return nil
}
func (m *halfSplitMachine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return msg.Bit(int(m.id) % 2), true
}
func (m *halfSplitMachine) Quiescent() bool { return true }

func TestFalsifierCatchesDirectAgreementViolation(t *testing.T) {
	factory := func(id proc.ID, _ msg.Value) sim.Machine { return &halfSplitMachine{id: id} }
	rep := mustFalsify(t, "half-split", factory, 1, Options{})
	if !rep.Broken() {
		t.Fatal("expected a violation")
	}
	// The split is visible among correct processes in any probe: either a
	// validity or agreement certificate is acceptable, and it must
	// verify.
	if err := rep.Recheck(factory, 1); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}

// quorumMachine sits on Lemma 2's boundary: in round 1 the t/2 processes
// p0…p(t/2−1) broadcast their proposals, and at round 1 everyone decides
// 0 iff every one of them, itself included, proposed 0, and 1 otherwise. A
// process isolated from round 1 therefore disagrees after receive-omitting
// exactly t/2 messages from correct senders — one too many for the swap.
type quorumMachine struct {
	sim.DecideOnce
	quorum   int
	id       proc.ID
	proposal msg.Value
}

func (m *quorumMachine) Init() []sim.Outgoing {
	if int(m.id) >= m.quorum {
		return nil
	}
	var all sim.Broadcast
	return all.Send(string(m.proposal))
}

func (m *quorumMachine) Step(_ int, received []msg.Message) []sim.Outgoing {
	zeros := 0
	if int(m.id) < m.quorum && m.proposal == msg.Zero {
		zeros++
	}
	for _, rm := range received {
		if int(rm.Sender) < m.quorum && rm.Payload == string(msg.Zero) {
			zeros++
		}
	}
	d := msg.One
	if zeros == m.quorum {
		d = msg.Zero
	}
	m.Decide(d)
	return nil
}

// TestLemma2SwapNeedsFewerThanHalfT pins the strict bound of Lemma 2:
// 2|M_X→p| = t is not < t, so every disagreeing isolated process is
// logged as inapplicable, the merge finds nothing either, and the
// protocol survives.
func TestLemma2SwapNeedsFewerThanHalfT(t *testing.T) {
	factory := func(id proc.ID, proposal msg.Value) sim.Machine {
		return &quorumMachine{quorum: testT / 2, id: id, proposal: proposal}
	}
	rep := mustFalsify(t, "quorum", factory, 1, Options{Parallelism: 1})
	if rep.Broken() {
		t.Fatalf("certified past Lemma 2's bound: %s", rep.Verdict())
	}
	joined := strings.Join(rep.Log, "\n")
	for _, want := range []string{
		`E_B(1)_0: p32 disagrees (decided=true "1") but receive-omits 8 >= t/2 messages from correct senders — swap inapplicable`,
		"merged/C: p36 disagrees",
		"no Lemma 2 candidate",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("log missing %q:\n%s", want, joined)
		}
	}
}

// beaconMachine is broken only past the critical round. p0 beacons in
// rounds 1…r−1; a process that misses a beacon raises a flag to everyone
// in round r; at round r everyone decides 1 if it missed a beacon or saw a
// flag, and its proposal otherwise. An isolated group always agrees with
// A: isolated before round r it flags, isolated from round r it misses
// nothing. The all-0 family flips at R = r−1, and only the merge of
// E_B(r)_0 with E_C(r−1)_0 splits: C's flags reach A and not B.
type beaconMachine struct {
	sim.DecideOnce
	r        int
	id       proc.ID
	proposal msg.Value
	missed   bool
}

// Init is Step at round 0, which sends p0's first beacon.
func (m *beaconMachine) Init() []sim.Outgoing { return m.Step(0, nil) }

func (m *beaconMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	beacon, flagged := false, false
	for _, rm := range received {
		beacon = beacon || rm.Payload == "beacon"
		flagged = flagged || rm.Payload == "flag"
	}
	m.missed = m.missed || (round > 0 && round < m.r && m.id != 0 && !beacon)
	var all sim.Broadcast
	switch {
	case round == m.r:
		d := m.proposal
		if m.missed || flagged {
			d = msg.One
		}
		m.Decide(d)
	case round == m.r-1 && m.missed:
		return all.Send("flag")
	case round < m.r-1 && m.id == 0:
		return all.Send("beacon")
	}
	return nil
}

// TestFalsifierCertifiesMergeAfterCriticalRound walks the scan past round
// 1 to the critical round and certifies the merged execution's Lemma 2
// swap on B, which the plan recheck accepts.
func TestFalsifierCertifiesMergeAfterCriticalRound(t *testing.T) {
	const r = 4
	factory := func(id proc.ID, proposal msg.Value) sim.Machine {
		return &beaconMachine{r: r, id: id, proposal: proposal}
	}
	rep := mustFalsify(t, "beacon", factory, r, Options{Parallelism: 1})
	if !rep.Broken() || !strings.HasPrefix(rep.Violation.Detail, "merged/B: Lemma 2 swap on p32") {
		t.Fatalf("want a merged/B certificate, got %s\nlog:\n%s", rep.Verdict(), strings.Join(rep.Log, "\n"))
	}
	if joined := strings.Join(rep.Log, "\n"); !strings.Contains(joined, `critical round R=3: A decides "1" in E_B(3)_0 and "0" in E_B(4)_0`) {
		t.Errorf("critical round not R=3:\n%s", joined)
	}
	if err := rep.Recheck(factory, r); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}
