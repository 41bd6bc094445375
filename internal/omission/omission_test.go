package omission

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
)

// echoMachine broadcasts its proposal for `rounds` rounds, then decides 0
// iff every expected message in every round carried "0" and its own
// proposal is "0" (a deliberately fault-sensitive rule, ideal for
// exercising isolation).
type echoMachine struct {
	n, rounds int
	id        proc.ID
	sawOther  bool
	proposal  msg.Value
	decided   bool
	decision  msg.Value
	done      bool
}

func echoFactory(n, rounds int) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &echoMachine{n: n, rounds: rounds, id: id, proposal: proposal}
	}
}

func (m *echoMachine) broadcast() []sim.Outgoing {
	var out []sim.Outgoing
	for p := proc.ID(0); p < proc.ID(m.n); p++ {
		if p != m.id {
			out = append(out, sim.Outgoing{To: p, Payload: string(m.proposal)})
		}
	}
	return out
}

func (m *echoMachine) Init() []sim.Outgoing { return m.broadcast() }

func (m *echoMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.done {
		return nil
	}
	if len(received) != m.n-1 {
		m.sawOther = true // someone was silent: fault detected
	}
	for _, rm := range received {
		if msg.Value(rm.Payload) != msg.Zero {
			m.sawOther = true
		}
	}
	if round >= m.rounds {
		m.decision = msg.Zero
		if m.proposal != msg.Zero || m.sawOther {
			m.decision = msg.One
		}
		m.decided, m.done = true, true
		return nil
	}
	return m.broadcast()
}

func (m *echoMachine) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return m.decision, true
}

func (m *echoMachine) Quiescent() bool { return m.done }

func uniform(n int, v msg.Value) []msg.Value {
	out := make([]msg.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

const (
	tn = 8 // system size for these tests
	tt = 4 // fault budget
)

func runFull(t *testing.T, prop msg.Value) *sim.Execution {
	t.Helper()
	cfg := sim.Config{N: tn, T: tt, Proposals: uniform(tn, prop), MaxRounds: 8}
	e, err := sim.Run(cfg, echoFactory(tn, 3), sim.NoFaults{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

// trace is e as a full trace, failing the test on a lean execution.
func trace(t *testing.T, e *sim.Execution) *sim.Trace {
	t.Helper()
	tr, err := e.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestValidateFullCorrectExecution(t *testing.T) {
	e := runFull(t, msg.Zero)
	if err := Validate(e); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	d, err := e.CommonDecision(proc.Universe(tn))
	if err != nil || d != msg.Zero {
		t.Fatalf("decision %q err %v", d, err)
	}
}

func TestValidateRejectsMutations(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(e *sim.Execution)
		want string
	}{
		{
			"too many faulty",
			func(e *sim.Execution) { e.Faulty = proc.Range(0, proc.ID(tt+1)) },
			"faulty-processes",
		},
		{
			"phantom received",
			func(e *sim.Execution) {
				f := &e.Behavior(0).Fragments[0]
				f.Received = append(f.Received, msg.Message{Sender: 5, Receiver: 0, Round: 1, Payload: "ghost"})
			},
			"",
		},
		{
			"dropped delivery",
			func(e *sim.Execution) {
				f := &e.Behavior(1).Fragments[0]
				f.Received = f.Received[1:]
			},
			"send-validity",
		},
		{
			"omission at correct process",
			func(e *sim.Execution) {
				f := &e.Behavior(2).Fragments[0]
				f.ReceiveOmitted = append(f.ReceiveOmitted, f.Received[0])
				f.Received = f.Received[1:]
			},
			"omission-validity",
		},
		{
			"decision instability",
			func(e *sim.Execution) {
				last := len(e.Behavior(3).Fragments) - 1
				e.Behavior(3).Fragments[last].Decision = "42"
				e.Behavior(3).Fragments[last-1].Decided = true
				e.Behavior(3).Fragments[last-1].Decision = "7"
			},
			"decision",
		},
		{
			"self message",
			func(e *sim.Execution) {
				f := &e.Behavior(0).Fragments[0]
				f.Sent = append(f.Sent, msg.Message{Sender: 0, Receiver: 0, Round: 1, Payload: "x"})
			},
			"self-message",
		},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			e := runFull(t, msg.Zero)
			tc.mut(e)
			err := Validate(e)
			if err == nil {
				t.Fatal("mutation not detected")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateNamesTheSmallestLostMessage loses two messages, the larger
// of which a walk over behaviors meets first: the witness is the smaller in
// message order (round before sender), not the first one met.
func TestValidateNamesTheSmallestLostMessage(t *testing.T) {
	e := runFull(t, msg.Zero)
	lose := func(sender, receiver proc.ID, round int) msg.Message {
		f := &e.Behavior(receiver).Fragments[round-1]
		for i, m := range f.Received {
			if m.Sender == sender {
				f.Received = slices.Delete(slices.Clone(f.Received), i, i+1)
				return m
			}
		}
		t.Fatalf("%s received nothing from %s in round %d", receiver, sender, round)
		return msg.Message{}
	}
	later := lose(0, 1, 2)   // behavior 0: met first
	smaller := lose(5, 2, 1) // behavior 5, but round 1
	err := Validate(e)
	if err == nil {
		t.Fatal("two lost messages not detected")
	}
	if want := fmt.Sprintf("send-validity: %v sent", smaller); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q\ndoes not name the smallest lost message %v (the other is %v)", err, smaller, later)
	}
}

// TestValidateCatchesLossInLastRound loses one message of the last round
// the trace records: send-validity covers every recorded round, the last
// one included.
func TestValidateCatchesLossInLastRound(t *testing.T) {
	e := runFull(t, msg.Zero)
	last := len(e.Behavior(0).Fragments)
	f := &e.Behavior(1).Fragments[last-1]
	if len(f.Received) == 0 || f.Received[0].Sender != 0 {
		t.Fatalf("p1 received %v in round %d, want a message from p0 first", f.Received, last)
	}
	lost := f.Received[0]
	f.Received = slices.Clone(f.Received[1:])
	want := fmt.Sprintf("send-validity: %v sent but neither received nor receive-omitted", lost)
	if err := Validate(e); err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %q", err, want)
	}
}

// TestValidateRejectsEndpointsOutsidePi: the fragment conditions of
// Appendix A.1.4 range over Π, so a message to or from a process outside
// it is a composition error in each of a faulty process's four lists —
// including SendOmitted, where no other guarantee would notice it.
func TestValidateRejectsEndpointsOutsidePi(t *testing.T) {
	lists := []struct {
		name     string
		list     func(f *sim.Fragment) *[]msg.Message
		outgoing bool
	}{
		{"Sent", func(f *sim.Fragment) *[]msg.Message { return &f.Sent }, true},
		{"SendOmitted", func(f *sim.Fragment) *[]msg.Message { return &f.SendOmitted }, true},
		{"Received", func(f *sim.Fragment) *[]msg.Message { return &f.Received }, false},
		{"ReceiveOmitted", func(f *sim.Fragment) *[]msg.Message { return &f.ReceiveOmitted }, false},
	}
	for _, l := range lists {
		for _, other := range []proc.ID{-1, tn, 99} {
			t.Run(fmt.Sprintf("%s/%s", l.name, other), func(t *testing.T) {
				e := runFull(t, msg.Zero)
				e.Faulty = proc.NewSet(0)
				m := msg.Message{Sender: other, Receiver: 0, Round: 1, Payload: "x"}
				want := fmt.Sprintf("composition: p0: round 1: incoming %v has sender outside Π (n=%d)", m, tn)
				if l.outgoing {
					m.Sender, m.Receiver = 0, other
					want = fmt.Sprintf("composition: p0: round 1: outgoing %v has receiver outside Π (n=%d)", m, tn)
				}
				list := l.list(&e.Behavior(0).Fragments[0])
				*list = append(slices.Clone(*list), m)
				if err := Validate(e); err == nil || err.Error() != want {
					t.Errorf("got %v, want %q", err, want)
				}
			})
		}
	}
}

// TestValidateAllocations holds Validate to a constant handful of
// allocations — Π for the faulty set's range check, the composition stamps
// and the sender×receiver table — on fault-free phase-king traces of two
// sizes: no per-message or per-fragment map creeps back in.
func TestValidateAllocations(t *testing.T) {
	for _, n := range []int{16, 64} {
		tf := (n - 1) / 4
		props := make([]msg.Value, n)
		for i := range props {
			props[i] = msg.Bit(i % 2)
		}
		cfg := sim.Config{N: n, T: tf, Proposals: props, MaxRounds: sim.Horizon(phaseking.RoundBound(tf))}
		e, err := sim.Run(cfg, phaseking.New(phaseking.Config{N: n, T: tf}), sim.NoFaults{})
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(e); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = Validate(e) }); allocs > 4 {
			t.Errorf("n=%d: Validate allocates %.0f times, want at most 4", n, allocs)
		}
	}
}

func TestIsolationDefinition(t *testing.T) {
	group := proc.NewSet(6, 7)
	e, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, group, 2, 8)
	if err != nil {
		t.Fatalf("RunIsolated: %v", err)
	}
	// Before round 2 the isolated group receives everything.
	for _, id := range group.Members() {
		f1 := e.Behavior(id).Frag(1)
		if len(f1.Received) != tn-1 || len(f1.ReceiveOmitted) != 0 {
			t.Errorf("%s round 1: received %d, omitted %d", id, len(f1.Received), len(f1.ReceiveOmitted))
		}
		f2 := e.Behavior(id).Frag(2)
		if len(f2.ReceiveOmitted) != tn-group.Len() {
			t.Errorf("%s round 2: omitted %d, want %d", id, len(f2.ReceiveOmitted), tn-group.Len())
		}
		for _, m := range f2.Received {
			if !group.Contains(m.Sender) {
				t.Errorf("%s received out-of-group message %v after isolation", id, m)
			}
		}
	}
	// The isolated processes detect the silence and decide the default.
	for _, id := range group.Members() {
		if d, _ := e.Decision(id); d != msg.One {
			t.Errorf("isolated %s decided %q, want default 1", id, d)
		}
	}
	// The correct processes saw every message (isolation is receive-side) so
	// they decide 0.
	d, err := e.CommonDecision(group.Complement(tn))
	if err != nil || d != msg.Zero {
		t.Errorf("correct decision %q err %v", d, err)
	}
}

func TestCheckIsolatedRejectsWrongRound(t *testing.T) {
	group := proc.NewSet(6, 7)
	e, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, group, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckIsolated(e, group, 3); err == nil {
		t.Error("expected CheckIsolated to reject earlier-than-claimed omissions")
	}
	if err := CheckIsolated(e, proc.NewSet(0), 1); err == nil {
		t.Error("expected CheckIsolated to reject non-faulty group")
	}
}

// TestCheckIsolatedCatchesReceiveAtFromRound checks a group isolated
// from round 3 against a claim of round 2: a message from outside the
// group received in round fromRound itself breaks the claim.
func TestCheckIsolatedCatchesReceiveAtFromRound(t *testing.T) {
	group := proc.NewSet(6, 7)
	e, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, group, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := msg.Message{Sender: 0, Receiver: 6, Round: 2, Payload: string(msg.Zero)}
	want := fmt.Sprintf("isolation: p6 received %v from outside the group after round 2", m)
	if err := CheckIsolated(e, group, 2); err == nil || err.Error() != want {
		t.Errorf("CheckIsolated = %v, want %q", err, want)
	}
}

func TestIndistinguishablePrefix(t *testing.T) {
	// Figure 1: E0 and E_G(k) are indistinguishable to everyone through
	// round k-1 and to G's complement... — here we check process views.
	group := proc.NewSet(6, 7)
	e0 := trace(t, runFull(t, msg.Zero))
	eIso, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, group, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Isolation from round 3 of a 3-round protocol changes what 6,7 receive
	// in round 3 only; correct processes' received sets never change because
	// isolation drops inbound messages of the isolated group only.
	for id := proc.ID(0); id < 6; id++ {
		if err := Indistinguishable(e0, eIso, id); err != nil {
			t.Errorf("correct %s distinguishes: %v", id, err)
		}
	}
	for _, id := range group.Members() {
		if err := Indistinguishable(e0, eIso, id); err == nil {
			t.Errorf("isolated %s should distinguish E0 from E_G(3)", id)
		}
	}
}

func TestMessagesFromTo(t *testing.T) {
	group := proc.NewSet(6, 7)
	e, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, group, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	correct := group.Complement(tn)
	got := MessagesFromTo(e, correct, 6)
	// p6 receive-omits (n-2) out-of-group messages per round × 3 rounds.
	want := (tn - 2) * 3
	if len(got) != want {
		t.Errorf("M_{X→p6} = %d, want %d", len(got), want)
	}
	if in := MessagesFromTo(e, proc.NewSet(7), 6); len(in) != 0 {
		t.Errorf("in-group messages counted: %d", len(in))
	}
}

func TestSwapOmissionLemma15(t *testing.T) {
	// Use a genuinely cheap protocol (only the leader sends) so the swap
	// keeps |F'| <= t — Lemma 15's precondition.
	factory := cheap.Leader(tn)
	group := proc.NewSet(6, 7)
	e, err := RunIsolated(tn, tt, factory, msg.Zero, group, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := proc.ID(6)
	swapped, err := SwapOmission(e, p)
	if err != nil {
		t.Fatalf("SwapOmission: %v", err)
	}
	// (1) Valid execution with at most t faults.
	if err := Validate(swapped.Execution); err != nil {
		t.Errorf("swapped execution invalid: %v", err)
	}
	// (2) Indistinguishable to every process.
	for id := proc.ID(0); id < tn; id++ {
		if err := Indistinguishable(e, swapped, id); err != nil {
			t.Errorf("%s distinguishes swapped execution: %v", id, err)
		}
	}
	// (3) p is correct now; the new faulty set is exactly the leader (whose
	// message to p was swapped into a send-omission) and p7 (which keeps
	// its own receive-omission).
	if !swapped.Faulty.Equal(proc.NewSet(0, 7)) {
		t.Errorf("faulty after swap = %v, want {p0,p7}", swapped.Faulty)
	}
	// The trace still conforms to the protocol.
	if err := swapped.Conforms(factory, proc.Set{}); err != nil {
		t.Errorf("Conforms: %v", err)
	}
	// Decisions are preserved verbatim — so correct p6 (decided 1, never saw
	// the leader) now disagrees with correct p1 (decided 0): the Lemma 2
	// contradiction, concretely.
	d6, _ := swapped.Decision(6)
	d1, _ := swapped.Decision(1)
	if d6 != msg.One || d1 != msg.Zero {
		t.Errorf("expected disagreement 1 vs 0, got p6=%q p1=%q", d6, d1)
	}
	for id := proc.ID(0); id < tn; id++ {
		x1, ok1 := e.Decision(id)
		x2, ok2 := swapped.Decision(id)
		if x1 != x2 || ok1 != ok2 {
			t.Errorf("%s decision changed across swap", id)
		}
	}
}

func TestSwapOmissionRequiresNoSendOmissions(t *testing.T) {
	// Build an execution where p0 send-omits.
	plan := sim.OmissionPlan{
		F:      proc.NewSet(0),
		SendFn: func(m msg.Message) bool { return m.Round == 1 },
	}
	cfg := sim.Config{N: tn, T: tt, Proposals: uniform(tn, msg.Zero), MaxRounds: 8}
	e, err := sim.Run(cfg, echoFactory(tn, 3), plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SwapOmission(trace(t, e), 0); err == nil {
		t.Error("expected error: p0 commits send-omission faults")
	}
}

func TestMergeableSpec(t *testing.T) {
	cases := []struct {
		k1, k2 int
		pb, pc msg.Value
		want   bool
	}{
		{1, 1, msg.Zero, msg.One, true},
		{1, 1, msg.Zero, msg.Zero, true},
		{3, 3, msg.Zero, msg.Zero, true},
		{3, 4, msg.Zero, msg.Zero, true},
		{4, 3, msg.Zero, msg.Zero, true},
		{3, 5, msg.Zero, msg.Zero, false},
		{3, 3, msg.Zero, msg.One, false},
		{2, 1, msg.Zero, msg.One, false},
	}
	for _, tc := range cases {
		if got := Mergeable(tc.k1, tc.k2, tc.pb, tc.pc); got != tc.want {
			t.Errorf("Mergeable(%d,%d,%s,%s) = %v, want %v", tc.k1, tc.k2, tc.pb, tc.pc, got, tc.want)
		}
	}
}

func TestMergeLemma16(t *testing.T) {
	part, err := proc.NewPartition(tn, tt)
	if err != nil {
		t.Fatal(err)
	}
	eB, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, part.B, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	eC, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, part.C, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(MergeSpec{Part: part, EB: eB, KB: 2, EC: eC, KC: 3}, echoFactory(tn, 3), 8)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// Lemma 16 conclusions are checked inside Merge; assert the basics here.
	if !merged.Faulty.Equal(part.B.Union(part.C)) {
		t.Errorf("faulty = %v", merged.Faulty)
	}
	if err := merged.Conforms(echoFactory(tn, 3), proc.Set{}); err != nil {
		t.Errorf("merged trace does not conform: %v", err)
	}
	// Isolation is receive-side only: B and C keep broadcasting their
	// proposals, so group A sees a fault-free unanimous-0 pattern and
	// decides 0 — while the isolated groups detect the silence they
	// inflicted on themselves and default to 1. The merged execution thus
	// realizes the disagreement pattern of Figure 2.
	d, err := merged.CommonDecision(part.A)
	if err != nil {
		t.Fatalf("A decision: %v", err)
	}
	if d != msg.Zero {
		t.Errorf("A decided %q, want 0 (it sees no faults)", d)
	}
	for _, id := range part.B.Union(part.C).Members() {
		if di, _ := merged.Decision(id); di != msg.One {
			t.Errorf("isolated %s decided %q, want default 1", id, di)
		}
	}
}

// TestMergeRefusesShortHorizon pins Merge's horizon refusal at its
// boundary. The echo protocol decides in round 3, so a source run to
// horizon 2 records 2 rounds and one run to 8 records 3. A horizon equal
// to both sources' rounds is accepted; one shorter than EB's alone, or
// than EC's alone, is refused.
func TestMergeRefusesShortHorizon(t *testing.T) {
	part, err := proc.NewPartition(tn, tt)
	if err != nil {
		t.Fatal(err)
	}
	run := func(group proc.Set, k, horizon int) *sim.Trace {
		tr, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, group, k, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, c := range []struct {
		name           string
		hB, hC, merged int
		err            string
	}{
		{"equal to both", 8, 8, 3, ""},
		{"shorter than EB", 8, 2, 2, "merge: horizon 2 shorter than sources (3, 2)"},
		{"shorter than EC", 2, 8, 2, "merge: horizon 2 shorter than sources (2, 3)"},
	} {
		spec := MergeSpec{Part: part, EB: run(part.B, 2, c.hB), KB: 2, EC: run(part.C, 3, c.hC), KC: 3}
		_, err := Merge(spec, echoFactory(tn, 3), c.merged)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("%s: error %v, want %q", c.name, err, c.err)
		}
	}
}

func TestMergeRejectsNonMergeable(t *testing.T) {
	part, err := proc.NewPartition(tn, tt)
	if err != nil {
		t.Fatal(err)
	}
	eB, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, part.B, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	eC, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.One, part.C, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Different proposals with k1 != 1: not mergeable.
	if _, err := Merge(MergeSpec{Part: part, EB: eB, KB: 2, EC: eC, KC: 3}, echoFactory(tn, 3), 8); err == nil {
		t.Error("expected mergeability error")
	}
}

func TestMergeRound1PairWithDifferentProposals(t *testing.T) {
	part, err := proc.NewPartition(tn, tt)
	if err != nil {
		t.Fatal(err)
	}
	eB, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, part.B, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	eC, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.One, part.C, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(MergeSpec{Part: part, EB: eB, KB: 1, EC: eC, KC: 1}, echoFactory(tn, 3), 8)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// C proposed 1 in its source, so the merged proposals are mixed.
	if p := merged.Behavior(part.C.Min()).Proposal; p != msg.One {
		t.Errorf("C proposal = %q, want 1", p)
	}
	if p := merged.Behavior(0).Proposal; p != msg.Zero {
		t.Errorf("A proposal = %q, want 0", p)
	}
}

func TestUniformProposal(t *testing.T) {
	e := runFull(t, msg.Zero)
	v, err := UniformProposal(e)
	if err != nil || v != msg.Zero {
		t.Errorf("UniformProposal = %q, %v", v, err)
	}
	e.Behavior(3).Proposal = msg.One
	if _, err := UniformProposal(e); err == nil {
		t.Error("expected non-uniform error")
	}
}

// TestCertify: one row per way the evidence standard refuses a trace, the
// tampering taken from TestValidateRejectsMutations. The fault budget is
// the first Appendix A.1.6 guarantee, so an over-budget trace is refused
// as an invalid one.
func TestCertify(t *testing.T) {
	factory := echoFactory(tn, 3)
	forge := func(e *sim.Execution) {
		for i, f := range e.Behavior(3).Fragments {
			if f.Decided {
				e.Behavior(3).Fragments[i].Decision = msg.One
			}
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(e *sim.Execution)
		skip proc.Set
		want string // "" = certified
	}{
		{"untouched", func(*sim.Execution) {}, proc.Set{}, ""},
		{"dropped delivery", func(e *sim.Execution) {
			f := &e.Behavior(1).Fragments[0]
			f.Received = f.Received[1:]
		}, proc.Set{}, "invalid trace: send-validity"},
		{"too many faulty", func(e *sim.Execution) { e.Faulty = proc.Range(0, proc.ID(tt+1)) }, proc.Set{}, "exceeds t=4"},
		{"forged decision", forge, proc.Set{}, "conformance: "},
		{"forged decision of a skipped process", forge, proc.NewSet(3), ""},
	} {
		e := runFull(t, msg.Zero)
		tc.mut(e)
		err := Certify(trace(t, e), factory, tc.skip)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want a %q refusal", tc.name, err, tc.want)
		}
	}
	if err := Certify(trace(t, runFull(t, msg.Zero)), echoFactory(tn, 2), proc.Set{}); err == nil || !strings.Contains(err.Error(), "conformance: ") {
		t.Errorf("another protocol's trace: got %v, want a conformance refusal", err)
	}
}

// TestProcessIndexesChecked: every entry point that looks a process up in
// an execution refuses one the execution does not have, naming it and n,
// instead of indexing past the behaviors.
func TestProcessIndexesChecked(t *testing.T) {
	part, err := proc.NewPartition(tn, tt)
	if err != nil {
		t.Fatal(err)
	}
	factory := echoFactory(tn, 3)
	isolated := func(n int, group proc.Set, k int) *sim.Trace {
		e, err := RunIsolated(n, tt, echoFactory(n, 3), msg.Zero, group, k, 8)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e8, e9 := trace(t, runFull(t, msg.Zero)), isolated(tn+1, part.C, 3)
	overclaimed := trace(t, runFull(t, msg.Zero))
	overclaimed.Faulty = proc.NewSet(8)
	for _, tc := range []struct {
		name string
		call func() error
		want string
	}{
		{"merge across sizes", func() error {
			_, err := Merge(MergeSpec{Part: part, EB: isolated(tn, part.B, 2), KB: 2, EC: e9, KC: 3}, factory, 8)
			return err
		}, "merge: sizes differ: partition n=8, EB n=8, EC n=9"},
		{"swap past n", func() error { _, err := SwapOmission(e8, 8); return err }, "swap_omission: p8 is not a process of this execution (n=8)"},
		{"swap below 0", func() error { _, err := SwapOmission(e8, -1); return err }, "swap_omission: p-1 is not a process of this execution (n=8)"},
		{"indistinguishable, first execution smaller", func() error { return Indistinguishable(e8, e9, 8) }, "p8 is not a process of this execution (n=8)"},
		{"indistinguishable, second execution smaller", func() error { return Indistinguishable(e9, e8, 8) }, "p8 is not a process of this execution (n=8)"},
		{"isolation of a group past n", func() error { return CheckIsolated(overclaimed, proc.NewSet(8), 1) }, "isolation: p8 is not a process of this execution (n=8)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := tc.call(); err == nil || err.Error() != tc.want {
				t.Errorf("got %v, want %q", err, tc.want)
			}
		})
	}
}
