package leakcheck

import (
	"os"
	"os/signal"
	"strings"
	"testing"
	"time"
)

// park starts a goroutine that blocks until release is closed. Its name
// is what a leak report must carry on the `created by` line.
func park(release <-chan struct{}) {
	go func() { <-release }()
}

// parked picks park's goroutines out of a report. Presence is asserted on
// these alone — what else is visible at one instant is not this test's to
// pin — and absence on the whole report, through settle's polling.
func parked(report []string) []string {
	var out []string
	for _, g := range report {
		if strings.Contains(g, "created by expensive/internal/leakcheck.park") {
			out = append(out, g)
		}
	}
	return out
}

// TestParkedGoroutineReported: a goroutine parked on a channel is
// reported, with the function that created it, for as long as it is
// parked — the whole settle window does not excuse it — and is gone from
// the report once released.
func TestParkedGoroutineReported(t *testing.T) {
	release := make(chan struct{})
	park(release)
	left := settle(50 * time.Millisecond)
	if got := parked(left); len(got) != 1 || !strings.Contains(got[0], "leakcheck.park.func1") {
		t.Fatalf("settle should report the one parked goroutine, running park.func1 and created by park; report:\n%s", strings.Join(left, "\n\n"))
	}
	close(release)
	if left := settle(2 * time.Second); len(left) != 0 {
		t.Errorf("released goroutine still reported:\n%s", strings.Join(left, "\n\n"))
	}
}

// TestSettleWaitsForExit: a goroutine still winding down when the check
// starts is given the window to finish and is not reported.
func TestSettleWaitsForExit(t *testing.T) {
	release := make(chan struct{})
	park(release)
	if left := stray(); len(parked(left)) != 1 {
		t.Fatalf("the parked goroutine should be visible before its release; report:\n%s", strings.Join(left, "\n\n"))
	}
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	if left := settle(2 * time.Second); len(left) != 0 {
		t.Errorf("goroutine that exited inside the window reported:\n%s", strings.Join(left, "\n\n"))
	}
}

// TestSignalLoopNotReported: the receive loop signal.Notify starts lives
// as long as the process, whoever asked for it (under -fuzz, the fuzzing
// engine), so it is no test's leak.
func TestSignalLoopNotReported(t *testing.T) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	if left := settle(50 * time.Millisecond); len(left) != 0 {
		t.Errorf("signal loop reported:\n%s", strings.Join(left, "\n\n"))
	}
}
