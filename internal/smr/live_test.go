package smr

import (
	"context"
	"fmt"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/obs"
	"expensive/internal/proc"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
	"expensive/internal/transport"
	"expensive/internal/transport/chaosnet"
	"expensive/internal/transport/memnet"
)

// liveConfig builds the canonical live log: phase-king slots over a
// fresh chaosnet-wrapped memnet mesh per slot, the chaos plan's budget
// feeding the safety monitor's faulty set.
func liveConfig(t *testing.T, n, tf int, profile string, seed int64, ctx context.Context) LiveConfig {
	t.Helper()
	var plans func(slot int) *chaosnet.Plan
	if profile != "" {
		p, ok := chaosnet.ByID(profile)
		if !ok {
			t.Fatalf("chaos profile %q missing", profile)
		}
		plans = func(slot int) *chaosnet.Plan {
			// One plan per slot, derived from the soak seed: every slot
			// sees different — but reproducible — chaos.
			return p.Build(seed+int64(slot), chaosnet.Env{N: n, T: tf})
		}
	}
	cfg := LiveConfig{
		N:    n,
		T:    tf,
		NoOp: "0",
		Protocol: func(slot int) (sim.Factory, int) {
			return phaseking.New(phaseking.Config{N: n, T: tf}), phaseking.RoundBound(tf)
		},
		Mesh: func(slot int) ([]transport.Endpoint, func() error, error) {
			mesh := memnet.New(n, nil)
			eps := mesh.Endpoints()
			if plans != nil {
				eps = chaosnet.Wrap(eps, plans(slot), obs.From(ctx))
			}
			return eps, eps[0].Close, nil
		},
		Ctx: ctx,
	}
	if plans != nil {
		cfg.Faulty = func(slot int) proc.Set { return plans(slot).Budget() }
	}
	return cfg
}

func TestLiveLogCommitsCleanMesh(t *testing.T) {
	log, err := NewLive(liveConfig(t, 4, 0, "", 0, context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	// A clear majority per slot: binary phase-king commits the majority
	// proposal, so every queued "1" drains (minority commands would only
	// livelock against the NoOp majority — a property of the toy binary
	// protocol, not of the log).
	for i, cmd := range []Command{"1", "1", "1"} {
		if err := log.Submit(proc.ID(i), cmd); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := log.Drain(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || log.Pending() != 0 {
		t.Fatalf("drain left %d pending after %d entries", log.Pending(), len(entries))
	}
	if d := log.Divergences(); len(d) != 0 {
		t.Fatalf("clean mesh diverged: %+v", d)
	}
	for i, e := range entries {
		if e.Slot != i {
			t.Errorf("entry %d has slot %d", i, e.Slot)
		}
		if e.Messages == 0 || e.Rounds == 0 {
			t.Errorf("entry %d missing cost accounting: %+v", i, e)
		}
	}
}

// TestLiveLogLatencyWithoutRecorder: the liveness monitor is the log's
// own, not telemetry's — with a nil Ctx (no recorder to borrow a histogram
// from) LatencyP50P99 still reports the commits it timed.
func TestLiveLogLatencyWithoutRecorder(t *testing.T) {
	log, err := NewLive(liveConfig(t, 4, 0, "", 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 3; slot++ {
		if _, err := log.CommitSlot(); err != nil {
			t.Fatal(err)
		}
	}
	if p50, p99 := log.LatencyP50P99(); p50 <= 0 || p99 < p50 {
		t.Errorf("3 slots committed with no recorder: p50=%d p99=%d", p50, p99)
	}
}

func TestLiveLogUnderChaosStorm(t *testing.T) {
	// The SMR soak core: phase-king slots over the storm profile
	// (drop + delay + partition within a T=1 budget). The online safety
	// monitor must stay silent and every slot must commit — Byzantine
	// agreement per slot is exactly what tolerates the budgeted faults.
	rec := obs.New()
	ctx := obs.Into(context.Background(), rec)
	n, tf := 5, 1
	log, err := NewLive(liveConfig(t, n, tf, "storm", 33, ctx))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 6; slot++ {
		for r := 0; r < n; r++ {
			if err := log.Submit(proc.ID(r), Command(fmt.Sprintf("%d", slot%2))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for log.Pending() > 0 && len(log.Entries()) < 64 {
		if _, err := log.CommitSlot(); err != nil {
			t.Fatalf("slot %d: %v", len(log.Entries()), err)
		}
	}
	if d := log.Divergences(); len(d) != 0 {
		t.Fatalf("safety violated under budgeted storm: %+v", d)
	}
	if got := rec.Counter("smr_live_commits").Value(); got != int64(len(log.Entries())) {
		t.Errorf("liveness counter %d, entries %d", got, len(log.Entries()))
	}
	p50, p99 := log.LatencyP50P99()
	if p50 <= 0 || p99 < p50 {
		t.Errorf("liveness histogram implausible: p50=%d p99=%d", p50, p99)
	}
}

// splitFactory decides each replica's own proposal without agreement —
// a deliberately unsafe "protocol" to prove the safety monitor fires.
type splitMachine struct{ v msg.Value }

func (m *splitMachine) Init() []sim.Outgoing                   { return nil }
func (m *splitMachine) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (m *splitMachine) Decision() (msg.Value, bool)            { return m.v, true }
func (m *splitMachine) Quiescent() bool                        { return true }

func TestLiveLogSafetyMonitorDetectsDivergence(t *testing.T) {
	rec := obs.New()
	ctx := obs.Into(context.Background(), rec)
	cfg := liveConfig(t, 3, 0, "", 0, ctx)
	cfg.Protocol = func(slot int) (sim.Factory, int) {
		return func(id proc.ID, proposal msg.Value) sim.Machine {
			return &splitMachine{v: proposal}
		}, 1
	}
	log, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, cmd := range []Command{"a", "b", "c"} {
		if err := log.Submit(proc.ID(i), cmd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.CommitSlot(); err != nil {
		t.Fatal(err)
	}
	d := log.Divergences()
	if len(d) != 1 || d[0].Slot != 0 || len(d[0].Decisions) != 3 {
		t.Fatalf("monitor missed the split: %+v", d)
	}
	if rec.Counter("smr_live_divergences").Value() != 1 {
		t.Errorf("divergence counter %d, want 1", rec.Counter("smr_live_divergences").Value())
	}
	// The log still committed (lowest-ID decision) so the soak can report
	// every violation rather than halting on the first.
	if entries := log.Entries(); len(entries) != 1 || entries[0].Command != "a" {
		t.Errorf("entries after divergence: %+v", entries)
	}
}

func TestLiveLogDeterministicUnderSameSeed(t *testing.T) {
	run := func() []Entry {
		log, err := NewLive(liveConfig(t, 5, 1, "storm", 77, context.Background()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := log.Submit(proc.ID(i), Command(fmt.Sprintf("%d", i%2))); err != nil {
				t.Fatal(err)
			}
		}
		entries, err := log.Drain(16)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("entry counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Command != b[i].Command || a[i].Slot != b[i].Slot {
			t.Errorf("slot %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
