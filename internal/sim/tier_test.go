package sim_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// tierConfigs returns one full-tier and one lean-tier config over the same
// inputs.
func tierConfigs(n, t, rounds int, proposals []msg.Value) (full, lean sim.Config) {
	full = sim.Config{N: n, T: t, Proposals: proposals, MaxRounds: rounds}
	lean = full
	lean.Recording = sim.RecordDecisions
	return full, lean
}

// runTiers runs one configuration at both tiers.
func runTiers(t *testing.T, cfg sim.Config, factory sim.Factory, plan sim.FaultPlan) (full, lean *sim.Execution) {
	t.Helper()
	var runs [2]*sim.Execution
	for i, rec := range []sim.Recording{sim.RecordFull, sim.RecordDecisions} {
		cfg.Recording = rec
		e, err := sim.Run(cfg, factory, plan)
		if err != nil {
			t.Fatalf("%s: %v", rec, err)
		}
		if e.Recording != rec {
			t.Fatalf("run at %s recorded at %s", rec, e.Recording)
		}
		runs[i] = e
	}
	return runs[0], runs[1]
}

// tiersAgree asserts that the lean record agrees with the full one on
// everything it claims to record: rounds, quiescence, decisions, decision
// rounds, and per-round message counts — which both tiers' Counts must
// read as the lengths of the full trace's message lists.
func tiersAgree(t *testing.T, full, lean *sim.Execution) {
	t.Helper()
	if lean.Rounds != full.Rounds || lean.Quiesced != full.Quiesced {
		t.Fatalf("rounds/quiesced: lean (%d,%v) vs full (%d,%v)",
			lean.Rounds, lean.Quiesced, full.Rounds, full.Quiesced)
	}
	if got, want := lean.CorrectMessages(), full.CorrectMessages(); got != want {
		t.Fatalf("correct messages: lean %d vs full %d", got, want)
	}
	for i := 0; i < full.N; i++ {
		id := proc.ID(i)
		lb, fb := lean.Behavior(id), full.Behavior(id)
		lv, lok := lb.FinalDecision()
		fv, fok := fb.FinalDecision()
		if lok != fok || lv != fv {
			t.Fatalf("%s decision: lean (%q,%v) vs full (%q,%v)", id, lv, lok, fv, fok)
		}
		if lb.DecisionRound() != fb.DecisionRound() {
			t.Fatalf("%s decision round: lean %d vs full %d", id, lb.DecisionRound(), fb.DecisionRound())
		}
		if lb.RoundsRecorded() != fb.RoundsRecorded() {
			t.Fatalf("%s rounds recorded: lean %d vs full %d", id, lb.RoundsRecorded(), fb.RoundsRecorded())
		}
		for r := 1; r <= full.Rounds+1; r++ {
			f := fb.Frag(r)
			want := [4]int{len(f.Sent), len(f.SendOmitted), len(f.Received), len(f.ReceiveOmitted)}
			for _, tier := range []struct {
				name string
				b    *sim.Behavior
			}{{"full", fb}, {"lean", lb}} {
				var got [4]int
				got[0], got[1], got[2], got[3] = tier.b.Counts(r)
				if got != want {
					t.Fatalf("%s round %d: %s counts %v, full trace holds %v (sent, send-omitted, received, receive-omitted)",
						id, r, tier.name, got, want)
				}
			}
		}
	}
}

// flipper breaks DecideOnce on purpose: it decides "x" in round 1,
// reports undecided in round 2 and decides "y" from round 3 on.
type flipper struct{ round int }

func (m *flipper) Init() []sim.Outgoing                       { return nil }
func (m *flipper) Step(r int, _ []msg.Message) []sim.Outgoing { m.round = r; return nil }
func (m *flipper) Quiescent() bool                            { return m.round >= 3 }
func (m *flipper) Decision() (msg.Value, bool) {
	switch {
	case m.round == 1:
		return "x", true
	case m.round >= 3:
		return "y", true
	}
	return msg.NoDecision, false
}

// TestLeanMatchesFull runs the flood machine under several fault plans —
// and, once, beside a machine that un-decides — at both tiers and asserts
// that the lean record agrees with the full one.
func TestLeanMatchesFull(t *testing.T) {
	n, tf, rounds := 5, 2, 4
	proposals := []msg.Value{"b", "a", "c", "a", "b"}
	flood := floodFactory(n, rounds)
	cases := map[string]struct {
		plan    sim.FaultPlan
		factory sim.Factory
	}{
		"no-faults": {sim.NoFaults{}, flood},
		"send-omit": {sim.OmissionPlan{
			F:      proc.NewSet(0),
			SendFn: func(m msg.Message) bool { return m.Round == 1 && m.Receiver == 1 },
		}, flood},
		"receive-omit": {sim.OmissionPlan{
			F:         proc.NewSet(3),
			ReceiveFn: func(m msg.Message) bool { return m.Round <= 2 },
		}, flood},
		"crash": {sim.Crash(map[proc.ID]sim.CrashSpec{2: {Round: 2, DeliverTo: proc.NewSet(0)}}), flood},
		"un-decide": {sim.NoFaults{}, func(id proc.ID, v msg.Value) sim.Machine {
			if id == 1 {
				return &flipper{}
			}
			return flood(id, v)
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: rounds}
			full, lean := runTiers(t, cfg, tc.factory, tc.plan)
			tiersAgree(t, full, lean)
			if name != "un-decide" {
				return
			}
			// The flipper reached the lean tier's un-decide branch: decided,
			// undecided, decided again — with the first round kept.
			if b := full.Behavior(1); !b.Frag(1).Decided || b.Frag(2).Decided || b.DecisionRound() != 1 {
				t.Fatalf("full trace of the flipper: %+v", b.Fragments)
			}
			if v, ok := lean.Decision(1); !ok || v != "y" {
				t.Fatalf("lean flipper decided (%q,%v), want (y,true)", v, ok)
			}
		})
	}
}

// omitBit reports bit k of omit, where k numbers the (kind, round, sender,
// receiver) quadruples of an n-process run of at most 5 rounds; bits past
// the end of omit are 0.
func omitBit(omit []byte, n int, receive bool, m msg.Message) bool {
	k := ((m.Round-1)*n+int(m.Sender))*n + int(m.Receiver)
	if receive {
		k += 5 * n * n
	}
	return k/8 < len(omit) && omit[k/8]>>(k%8)&1 == 1
}

// FuzzTiersAgree runs the flood machine at both tiers under a decoded
// omission plan — n ∈ [2, 6], MaxRounds ∈ [1, 5], the round the machines
// decide in ∈ [1, 5], a faulty set of at most n-1 processes, one omission
// bit per message and direction, and DisableEarlyStop — and requires the
// two records to agree and the full one to be omission-valid. The seeds
// under testdata/fuzz/ are TestLeanMatchesFull's four fault plans.
func FuzzTiersAgree(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(3), uint8(0), false, []byte{})
	f.Fuzz(func(t *testing.T, nb, roundsb, decideb, faulty uint8, noEarlyStop bool, omit []byte) {
		n, rounds, decide := 2+int(nb)%5, 1+int(roundsb)%5, 1+int(decideb)%5
		var ids []proc.ID
		for i := 0; i < n-1; i++ { // at most t = n-1 processes: p(n-1) stays correct
			if faulty>>i&1 == 1 {
				ids = append(ids, proc.ID(i))
			}
		}
		plan := sim.OmissionPlan{
			F:         proc.NewSet(ids...),
			SendFn:    func(m msg.Message) bool { return omitBit(omit, n, false, m) },
			ReceiveFn: func(m msg.Message) bool { return omitBit(omit, n, true, m) },
		}
		cfg := sim.Config{
			N: n, T: n - 1, MaxRounds: rounds, DisableEarlyStop: noEarlyStop,
			Proposals: []msg.Value{"b", "a", "c", "a", "b", "c"}[:n],
		}
		full, lean := runTiers(t, cfg, floodFactory(n, decide), plan)
		tiersAgree(t, full, lean)
		if err := omission.Validate(full); err != nil {
			t.Fatalf("full trace is not omission-valid: %v", err)
		}
	})
}

// TestLeanRejectsFullTraceAPIs verifies that the message-level APIs refuse
// lean executions with a descriptive error instead of silently treating
// absent slices as empty traces.
func TestLeanRejectsFullTraceAPIs(t *testing.T) {
	n, rounds := 4, 3
	proposals := []msg.Value{"a", "b", "a", "b"}
	_, leanCfg := tierConfigs(n, 1, rounds, proposals)
	lean, err := sim.Run(leanCfg, floodFactory(n, rounds), sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Conforms(lean, floodFactory(n, rounds), proc.Set{}); err == nil ||
		!strings.Contains(err.Error(), "full trace") {
		t.Fatalf("Conforms on lean trace: got %v, want full-trace error", err)
	}
	if err := omission.Validate(lean); err == nil || !strings.Contains(err.Error(), "full trace") {
		t.Fatalf("Validate on lean trace: got %v, want full-trace error", err)
	}
	if got := lean.Behavior(0).AllSent(); got != nil {
		t.Fatalf("AllSent on lean trace: got %d messages, want nil", len(got))
	}
}

// TestScratchPoolConcurrency hammers Run from many goroutines at both
// tiers to verify the pooled scratch buffers never leak state between
// concurrent runs (every probe must stay deterministic).
func TestScratchPoolConcurrency(t *testing.T) {
	n, rounds := 5, 4
	proposals := []msg.Value{"b", "a", "c", "a", "b"}
	fullCfg, leanCfg := tierConfigs(n, 1, rounds, proposals)
	ref, err := sim.Run(fullCfg, floodFactory(n, rounds), sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	refDecision, _ := ref.Decision(0)
	refMsgs := ref.CorrectMessages()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := fullCfg
				if i%2 == 0 {
					cfg = leanCfg
				}
				e, err := sim.Run(cfg, floodFactory(n, rounds), sim.NoFaults{})
				if err != nil {
					errs <- err
					return
				}
				d, ok := e.Decision(0)
				if !ok || d != refDecision || e.CorrectMessages() != refMsgs || e.Rounds != ref.Rounds {
					errs <- errMismatch(d, e.CorrectMessages(), e.Rounds)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct {
	d      msg.Value
	msgs   int
	rounds int
}

func (e mismatchError) Error() string {
	return "concurrent run diverged from reference: decision=" + string(e.d)
}

func errMismatch(d msg.Value, msgs, rounds int) error {
	return mismatchError{d: d, msgs: msgs, rounds: rounds}
}

// TestPlanAskedOnlyAboutCorrupted pins the FaultPlan contract at both
// tiers: the engine asks SendOmit only about messages a corrupted process
// sends and ReceiveOmit only about messages one receives, so a plan that
// would omit everything yields exactly the execution OmissionPlan's own
// guard on F yields, and that execution is omission-valid.
func TestPlanAskedOnlyAboutCorrupted(t *testing.T) {
	n, tf, rounds := 4, 1, 3
	proposals := []msg.Value{"b", "a", "c", "a"}
	f := proc.NewSet(0)
	always := func(msg.Message) bool { return true }
	guarded := sim.OmissionPlan{F: f, SendFn: always, ReceiveFn: always}
	fullCfg, leanCfg := tierConfigs(n, tf, rounds, proposals)

	runs := make(map[sim.Recording]*sim.Execution)
	for _, cfg := range []sim.Config{fullCfg, leanCfg} {
		var sends, recvs []msg.Message
		got, err := sim.Run(cfg, floodFactory(n, rounds), sim.NosyPlan{F: f, Sends: &sends, Recvs: &recvs})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Recording, err)
		}
		if len(sends) == 0 || len(recvs) == 0 {
			t.Fatalf("%s: plan asked %d send and %d receive questions, want some of each",
				cfg.Recording, len(sends), len(recvs))
		}
		for _, m := range sends {
			if m.Sender != 0 {
				t.Errorf("%s: SendOmit asked about %v, whose sender is correct", cfg.Recording, m)
			}
		}
		for _, m := range recvs {
			if m.Receiver != 0 {
				t.Errorf("%s: ReceiveOmit asked about %v, whose receiver is correct", cfg.Recording, m)
			}
		}
		want, err := sim.Run(cfg, floodFactory(n, rounds), guarded)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Recording, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: execution under the unguarded plan differs from the one under OmissionPlan", cfg.Recording)
		}
		runs[cfg.Recording] = got
	}

	full, lean := runs[sim.RecordFull], runs[sim.RecordDecisions]
	if err := omission.Validate(full); err != nil {
		t.Errorf("trace under the unguarded plan is not omission-valid: %v", err)
	}
	tiersAgree(t, full, lean)
}
