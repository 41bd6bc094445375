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

// TestLeanMatchesFull runs the flood machine under several fault plans at
// both tiers and asserts the lean record agrees with the full one on
// everything it claims to record: rounds, quiescence, decisions, decision
// rounds, and per-round message counts.
func TestLeanMatchesFull(t *testing.T) {
	n, tf, rounds := 5, 2, 4
	proposals := []msg.Value{"b", "a", "c", "a", "b"}
	plans := map[string]sim.FaultPlan{
		"no-faults": sim.NoFaults{},
		"send-omit": sim.OmissionPlan{
			F:      proc.NewSet(0),
			SendFn: func(m msg.Message) bool { return m.Round == 1 && m.Receiver == 1 },
		},
		"receive-omit": sim.OmissionPlan{
			F:         proc.NewSet(3),
			ReceiveFn: func(m msg.Message) bool { return m.Round <= 2 },
		},
		"crash": sim.Crash(map[proc.ID]sim.CrashSpec{2: {Round: 2, DeliverTo: proc.NewSet(0)}}),
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			fullCfg, leanCfg := tierConfigs(n, tf, rounds, proposals)
			full, err := sim.Run(fullCfg, floodFactory(n, rounds), plan)
			if err != nil {
				t.Fatal(err)
			}
			lean, err := sim.Run(leanCfg, floodFactory(n, rounds), plan)
			if err != nil {
				t.Fatal(err)
			}
			if lean.Recording != sim.RecordDecisions || full.Recording != sim.RecordFull {
				t.Fatalf("recording levels: full=%v lean=%v", full.Recording, lean.Recording)
			}
			if lean.Rounds != full.Rounds || lean.Quiesced != full.Quiesced {
				t.Fatalf("rounds/quiesced: lean (%d,%v) vs full (%d,%v)",
					lean.Rounds, lean.Quiesced, full.Rounds, full.Quiesced)
			}
			if got, want := lean.CorrectMessages(), full.CorrectMessages(); got != want {
				t.Fatalf("correct messages: lean %d vs full %d", got, want)
			}
			for i := 0; i < n; i++ {
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
				for r := 1; r <= full.Rounds; r++ {
					f := fb.Frag(r)
					l := lb.Lean
					if l.Sent[r-1] != len(f.Sent) || l.SendOmitted[r-1] != len(f.SendOmitted) ||
						l.Received[r-1] != len(f.Received) || l.ReceiveOmitted[r-1] != len(f.ReceiveOmitted) {
						t.Fatalf("%s round %d counts: lean (%d,%d,%d,%d) vs full (%d,%d,%d,%d)",
							id, r,
							l.Sent[r-1], l.SendOmitted[r-1], l.Received[r-1], l.ReceiveOmitted[r-1],
							len(f.Sent), len(f.SendOmitted), len(f.Received), len(f.ReceiveOmitted))
					}
				}
			}
		})
	}
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
	if lean.Rounds != full.Rounds {
		t.Fatalf("lean ran %d rounds, full %d", lean.Rounds, full.Rounds)
	}
	for i := 0; i < n; i++ {
		l := lean.Behaviors[i].Lean
		for r := 1; r <= full.Rounds; r++ {
			fr := full.Behaviors[i].Frag(r)
			got := [4]int{l.Sent[r-1], l.SendOmitted[r-1], l.Received[r-1], l.ReceiveOmitted[r-1]}
			want := [4]int{len(fr.Sent), len(fr.SendOmitted), len(fr.Received), len(fr.ReceiveOmitted)}
			if got != want {
				t.Errorf("p%d round %d: lean counts %v, full counts %v (sent, send-omitted, received, receive-omitted)",
					i, r, got, want)
			}
		}
	}
}
