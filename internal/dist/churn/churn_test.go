package churn

import (
	"context"
	"os/exec"
	"sync"
	"testing"
	"time"

	"expensive/internal/obs"
)

func TestParse(t *testing.T) {
	events, err := Parse(" 400ms:0, 900ms:1 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{After: 400 * time.Millisecond, Slot: 0}, {After: 900 * time.Millisecond, Slot: 1}}
	if len(events) != len(want) {
		t.Fatalf("got %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, events[i], want[i])
		}
	}
	if events, err := Parse(""); err != nil || events != nil {
		t.Errorf("empty schedule: got %v, %v", events, err)
	}
	for _, bad := range []string{"400ms", "x:0", "400ms:x", "-1s:0", "400ms:-1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestHarnessValidates(t *testing.T) {
	spawn := func(slot, inc int) (*exec.Cmd, error) { return exec.Command("sleep", "10"), nil }
	for _, h := range []*Harness{
		{Workers: 0, Spawn: spawn},
		{Workers: 2},
		{Workers: 2, Spawn: spawn, Schedule: []Event{{Slot: 2}}},
	} {
		if err := h.Start(); err == nil {
			h.Stop()
			t.Errorf("harness %+v started", h)
		}
	}
}

func TestKillRestartSchedule(t *testing.T) {
	rec := obs.New()
	ctx := obs.Into(context.Background(), rec)
	var mu sync.Mutex
	spawned := map[int][]int{} // slot -> incarnations seen
	h := &Harness{
		Workers: 2,
		Spawn: func(slot, inc int) (*exec.Cmd, error) {
			mu.Lock()
			spawned[slot] = append(spawned[slot], inc)
			mu.Unlock()
			return exec.Command("sleep", "30"), nil
		},
		Schedule: []Event{
			{After: 30 * time.Millisecond, Slot: 1},
			{After: 90 * time.Millisecond, Slot: 0},
			{After: 60 * time.Millisecond, Slot: 1}, // out of order on purpose
		},
		Ctx: ctx,
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	deadline := time.Now().Add(10 * time.Second)
	// A kill is counted before its respawn finishes: wait for both.
	for (h.Kills() < 3 || h.Restarts() < 3) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if h.Kills() != 3 || h.Restarts() != 3 {
		t.Fatalf("kills=%d restarts=%d, want 3/3", h.Kills(), h.Restarts())
	}
	if got := h.Incarnation(0); got != 1 {
		t.Errorf("slot 0 incarnation %d, want 1", got)
	}
	if got := h.Incarnation(1); got != 2 {
		t.Errorf("slot 1 incarnation %d, want 2", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(spawned[0]) != 2 || len(spawned[1]) != 3 {
		t.Errorf("spawn history %v, want slot0 x2 slot1 x3", spawned)
	}
	for slot, incs := range spawned {
		for i, inc := range incs {
			if inc != i {
				t.Errorf("slot %d spawn %d had incarnation %d", slot, i, inc)
			}
		}
	}
	if rec.Counter("churn_kills").Value() != 3 || rec.Counter("churn_restarts").Value() != 3 {
		t.Errorf("counters kills=%d restarts=%d, want 3/3",
			rec.Counter("churn_kills").Value(), rec.Counter("churn_restarts").Value())
	}
}

func TestStopKillsFleetAndIsIdempotent(t *testing.T) {
	h := &Harness{
		Workers: 3,
		Spawn:   func(slot, inc int) (*exec.Cmd, error) { return exec.Command("sleep", "600"), nil },
		Schedule: []Event{
			{After: time.Hour, Slot: 0}, // never fires; Stop must interrupt it
		},
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		h.Stop()
		h.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung")
	}
	for slot := 0; slot < 3; slot++ {
		w := h.procs[slot]
		select {
		case <-w.waited:
		default:
			t.Errorf("slot %d process not reaped after Stop", slot)
		}
	}
}

func TestContextCancelStopsSchedule(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	h := &Harness{
		Workers:  1,
		Spawn:    func(slot, inc int) (*exec.Cmd, error) { return exec.Command("sleep", "600"), nil },
		Schedule: []Event{{After: time.Hour, Slot: 0}},
		Ctx:      ctx,
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	cancel()
	done := make(chan struct{})
	go func() { h.scheduleEnd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("schedule did not exit on context cancel")
	}
	h.Stop()
}
