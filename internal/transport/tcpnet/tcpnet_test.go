package tcpnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/floodset"
	"expensive/internal/transport"
)

func TestFrameRoundTrip(t *testing.T) {
	mesh, err := New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer mesh.Close()
	eps := mesh.Endpoints()

	// Every ordered pair exchanges one frame over its socket.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			f := transport.Frame{From: i, To: j, Round: 1, Has: true, Payload: fmt.Sprintf("%d->%d", i, j)}
			if err := eps[i].Send(proc.ID(j), f); err != nil {
				t.Fatalf("Send %d->%d: %v", i, j, err)
			}
		}
	}
	for j := 0; j < 3; j++ {
		seen := map[int]bool{}
		for k := 0; k < 2; k++ {
			got, err := eps[j].Recv()
			if err != nil {
				t.Fatalf("Recv at %d: %v", j, err)
			}
			if got.To != j || got.Payload != fmt.Sprintf("%d->%d", got.From, j) {
				t.Errorf("node %d received mangled frame %+v", j, got)
			}
			seen[got.From] = true
		}
		if len(seen) != 2 {
			t.Errorf("node %d heard from %d peers, want 2", j, len(seen))
		}
	}
}

func TestBadPeerRejected(t *testing.T) {
	mesh, err := New(2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer mesh.Close()
	eps := mesh.Endpoints()
	if err := eps[0].Send(0, transport.Frame{}); err == nil {
		t.Error("expected self-send rejection")
	}
	if err := eps[0].Send(7, transport.Frame{}); err == nil {
		t.Error("expected unknown-peer rejection")
	}
}

func TestCleanShutdown(t *testing.T) {
	// A full protocol run followed by Close: the mesh tears down its
	// sockets and reader pumps without wedging, Close is idempotent, and
	// post-close Recv fails fast instead of blocking.
	n, tf := 4, 1
	mesh, err := New(n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cluster := transport.Cluster{
		N:         n,
		Endpoints: mesh.Endpoints(),
		Factory:   floodset.New(floodset.Config{N: n, T: tf}),
		Proposals: []msg.Value{"1", "0", "1", "1"},
		Rounds:    floodset.RoundBound(tf),
	}
	results, err := cluster.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d, err := transport.CommonDecision(results, proc.Universe(n)); err != nil || d != "0" {
		t.Fatalf("decision %q err %v, want fault-free floodset minimum 0", d, err)
	}

	if err := mesh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The reader pumps must exit once their connections die.
	pumpsDone := make(chan struct{})
	go func() {
		mesh.readers.Wait()
		close(pumpsDone)
	}()
	select {
	case <-pumpsDone:
	case <-time.After(5 * time.Second):
		t.Fatal("reader pumps still running 5s after Close")
	}

	recvDone := make(chan error, 1)
	go func() {
		_, err := mesh.Endpoints()[0].Recv()
		recvDone <- err
	}()
	select {
	case err := <-recvDone:
		if err == nil {
			t.Error("Recv after close returned a frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after Close")
	}
}

func TestCloseUnblocksWedgedPump(t *testing.T) {
	// A receiver that stops draining wedges its reader pump on the full
	// inbox channel (capacity 4n). Close must still join every pump and
	// close the inboxes — the fix for Recv-after-Close has to cover this
	// case, not just drained meshes.
	mesh, err := New(2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eps := mesh.Endpoints()
	for k := 0; k < 32; k++ { // far beyond the 8-frame inbox buffer
		f := transport.Frame{From: 0, To: 1, Round: k + 1, Has: true, Payload: "flood"}
		if err := eps[0].Send(1, f); err != nil {
			t.Fatalf("Send %d: %v", k, err)
		}
	}
	// Give the pump time to fill the inbox and block on the next send.
	time.Sleep(50 * time.Millisecond)
	if err := mesh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	pumpsDone := make(chan struct{})
	go func() {
		mesh.readers.Wait()
		close(pumpsDone)
	}()
	select {
	case <-pumpsDone:
	case <-time.After(5 * time.Second):
		t.Fatal("a pump stayed wedged on a full inbox after Close")
	}
}

// TestEndpointCloseScopedToEndpoint is the regression for the scoping
// fix: closing one endpoint must sever only that node's links — siblings
// keep exchanging frames over theirs, and Mesh.Close still tears the
// whole mesh down afterwards.
func TestEndpointCloseScopedToEndpoint(t *testing.T) {
	mesh, err := New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eps := mesh.Endpoints()
	if err := eps[2].Close(); err != nil {
		t.Fatalf("endpoint Close: %v", err)
	}
	if err := eps[2].Close(); err != nil {
		t.Fatalf("second endpoint Close: %v", err)
	}

	// The closed endpoint fails fast with the typed sentinel.
	if err := eps[2].Send(0, transport.Frame{From: 2, To: 0, Round: 1}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Send on closed endpoint = %v, want ErrClosed", err)
	}
	if _, err := eps[2].Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Recv on closed endpoint = %v, want ErrClosed", err)
	}

	// Siblings of the closed endpoint keep working: 0 <-> 1 both ways.
	for _, dir := range [][2]int{{0, 1}, {1, 0}} {
		from, to := dir[0], dir[1]
		want := transport.Frame{From: from, To: to, Round: 1, Has: true, Payload: fmt.Sprintf("%d->%d", from, to)}
		if err := eps[from].Send(proc.ID(to), want); err != nil {
			t.Fatalf("sibling Send %d->%d after endpoint close: %v", from, to, err)
		}
		got, err := eps[to].Recv()
		if err != nil {
			t.Fatalf("sibling Recv at %d after endpoint close: %v", to, err)
		}
		if got != want {
			t.Fatalf("sibling Recv = %+v, want %+v", got, want)
		}
	}

	// Full teardown still works and joins every pump.
	if err := mesh.Close(); err != nil {
		t.Fatalf("mesh Close after endpoint close: %v", err)
	}
	pumpsDone := make(chan struct{})
	go func() {
		mesh.readers.Wait()
		close(pumpsDone)
	}()
	select {
	case <-pumpsDone:
	case <-time.After(5 * time.Second):
		t.Fatal("reader pumps still running 5s after mesh Close")
	}
}

// TestRecvTimeoutOnStalledPeer is the hardening regression: a Recv
// against a peer that never sends must fail with a timeout error instead
// of blocking forever (the bound shortened so the test need not wait out
// the product's).
func TestRecvTimeoutOnStalledPeer(t *testing.T) {
	mesh, err := New(2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer mesh.Close()
	mesh.recvTimeout = 50 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		// Node 0 waits for a frame node 1 never sends.
		_, err := mesh.Endpoints()[0].Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned a frame from a silent peer")
		}
		if !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("Recv error = %v, want transport.ErrTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv blocked past its timeout on a stalled peer")
	}
}

// TestRecvTimeoutStillDelivers checks the deadline path does not drop
// frames that arrive in time.
func TestRecvTimeoutStillDelivers(t *testing.T) {
	mesh, err := New(2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer mesh.Close()
	eps := mesh.Endpoints()
	want := transport.Frame{From: 0, To: 1, Round: 1, Has: true, Payload: "x"}
	if err := eps[0].Send(1, want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := eps[1].Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got != want {
		t.Fatalf("Recv = %+v, want %+v", got, want)
	}
}
