// Package leakcheck holds a test binary to the harness's
// goroutine-shutdown contract: every goroutine the tests start — mesh
// processes, coordinator readers, heartbeats, churned workers, the debug
// server's accept loop — has stopped by the time they are over. A package
// opts in with `func TestMain(m *testing.M) { leakcheck.Main(m) }`.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// settleWindow is how long goroutines get to wind down after the last
// test returns: a close only asks a goroutine to stop, it does not wait.
const settleWindow = 2 * time.Second

// Main runs the package's tests and exits with their status, or with 1
// and the stacks of the goroutines passing tests left behind. A failing
// run is not checked: a test that bailed out explains its own leftovers.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := settle(settleWindow); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still running %v after the tests finished:\n\n%s\n",
				len(left), settleWindow, strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls until no stray goroutine remains or the window is spent,
// and returns the stacks of those left.
func settle(window time.Duration) []string {
	deadline := time.Now().Add(window)
	for {
		left := stray()
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stray returns the stack, `created by` line included, of every
// goroutine but the caller's and testing's; the dump leaves the
// runtime's own out.
func stray() []string {
	var dump bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&dump, 2) // debug=2: the runtime.Stack(all) text, untruncated
	var out []string
	// One blank-line-separated record per goroutine, the caller's first.
	for _, g := range strings.Split(strings.TrimSpace(dump.String()), "\n\n")[1:] {
		// testing's: main parked in (*T).Run, test functions under tRunner.
		if !strings.Contains(g, "\ntesting.") {
			out = append(out, g)
		}
	}
	return out
}
