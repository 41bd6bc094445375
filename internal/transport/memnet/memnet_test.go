package memnet

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"expensive/internal/proc"
	"expensive/internal/transport"
)

func TestDeliveryRoundTrip(t *testing.T) {
	mesh := New(3, nil)
	eps := mesh.Endpoints()

	sent := transport.Frame{From: 0, To: 2, Round: 1, Has: true, Payload: "hello"}
	if err := eps[0].Send(2, sent); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := eps[2].Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got != sent {
		t.Errorf("received %+v, want %+v", got, sent)
	}
}

func TestFIFOPerLink(t *testing.T) {
	mesh := New(2, nil)
	eps := mesh.Endpoints()
	for r := 1; r <= 5; r++ {
		f := transport.Frame{From: 0, To: 1, Round: r, Has: true, Payload: "m"}
		if err := eps[0].Send(1, f); err != nil {
			t.Fatalf("Send round %d: %v", r, err)
		}
	}
	for r := 1; r <= 5; r++ {
		got, err := eps[1].Recv()
		if err != nil {
			t.Fatalf("Recv round %d: %v", r, err)
		}
		if got.Round != r {
			t.Fatalf("frame order broken: got round %d, want %d", got.Round, r)
		}
	}
}

func TestDropFilterOmission(t *testing.T) {
	// The drop filter realizes a transport-level omission: the payload is
	// dropped but the frame itself survives, preserving round synchrony.
	filter := func(from, to proc.ID, round int) bool { return from == 0 && to == 1 && round == 2 }
	mesh := New(2, filter)
	eps := mesh.Endpoints()

	for _, round := range []int{1, 2, 3} {
		f := transport.Frame{From: 0, To: 1, Round: round, Has: true, Payload: "v"}
		if err := eps[0].Send(1, f); err != nil {
			t.Fatalf("Send round %d: %v", round, err)
		}
		got, err := eps[1].Recv()
		if err != nil {
			t.Fatalf("Recv round %d: %v", round, err)
		}
		wantPayload := round != 2
		if got.Has != wantPayload {
			t.Errorf("round %d: frame Has=%v, want %v", round, got.Has, wantPayload)
		}
		if got.Has && got.Payload != "v" {
			t.Errorf("round %d: payload %q corrupted", round, got.Payload)
		}
		if !got.Has && got.Payload != "" {
			t.Errorf("round %d: dropped frame still carries payload %q", round, got.Payload)
		}
	}
}

func TestEmptyFramesPassFilter(t *testing.T) {
	// Only payloads are omission-faultable; empty frames always pass (they
	// carry the round structure).
	filter := func(from, to proc.ID, round int) bool { return true }
	mesh := New(2, filter)
	eps := mesh.Endpoints()
	if err := eps[0].Send(1, transport.Frame{From: 0, To: 1, Round: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := eps[1].Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Has {
		t.Errorf("empty frame gained a payload: %+v", got)
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	mesh := New(2, nil)
	eps := mesh.Endpoints()
	if err := eps[0].Send(5, transport.Frame{}); err == nil {
		t.Error("expected error for unknown peer")
	}
	if err := eps[0].Send(-1, transport.Frame{}); err == nil {
		t.Error("expected error for negative peer")
	}
}

func TestCloseIsIdempotentAndUnblocksRecv(t *testing.T) {
	mesh := New(3, nil)
	eps := mesh.Endpoints()

	done := make(chan error, 1)
	go func() {
		_, err := eps[1].Recv()
		done <- err
	}()

	if err := eps[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Closing any endpoint closes the mesh exactly once; further closes
	// are no-ops.
	if err := eps[2].Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Recv after close: got %v, want mesh-closed error", err)
	}
}

// TestInboxLimit fills one inbox of a nine-process mesh from a single
// sender: the ring grows from 2(n-1) = 16 frames to the mesh's limit of
// 5n = 45, and the 46th frame is refused. One Recv makes room for one
// more frame, and every frame comes out in the order it was sent.
func TestInboxLimit(t *testing.T) {
	const n, limit = 9, 45
	eps := New(n, nil).Endpoints()
	send := func(round int) error {
		return eps[0].Send(1, transport.Frame{From: 0, To: 1, Round: round})
	}
	for r := 1; r <= limit; r++ {
		if err := send(r); err != nil {
			t.Fatalf("frame %d of %d refused: %v", r, limit, err)
		}
	}
	if err := send(limit + 1); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("frame %d: got %v, want an inbox-full error", limit+1, err)
	}
	if f, err := eps[1].Recv(); err != nil || f.Round != 1 {
		t.Fatalf("Recv: frame %+v, error %v", f, err)
	}
	if err := send(limit + 1); err != nil {
		t.Fatalf("frame %d refused after a Recv: %v", limit+1, err)
	}
	if err := send(limit + 2); err == nil {
		t.Fatalf("frame %d accepted by a full inbox", limit+2)
	}
	for r := 2; r <= limit+1; r++ {
		if f, err := eps[1].Recv(); err != nil || f.Round != r {
			t.Fatalf("Recv: frame %+v, error %v, want round %d", f, err, r)
		}
	}
}

// TestFIFOAcrossWrapAndGrowth wraps a three-process ring (4 frames)
// around its end, then overflows it so it grows with its head in the
// middle: the frames still come out in send order.
func TestFIFOAcrossWrapAndGrowth(t *testing.T) {
	eps := New(3, nil).Endpoints()
	next, want := 1, 1
	send := func(k int) {
		for ; k > 0; k-- {
			if err := eps[0].Send(1, transport.Frame{From: 0, To: 1, Round: next}); err != nil {
				t.Fatalf("Send round %d: %v", next, err)
			}
			next++
		}
	}
	recv := func(k int) {
		for ; k > 0; k-- {
			f, err := eps[1].Recv()
			if err != nil || f.Round != want {
				t.Fatalf("Recv: frame %+v, error %v, want round %d", f, err, want)
			}
			want++
		}
	}
	send(3)
	recv(2) // head at 2
	send(3) // the ring is full and wraps: rounds 3 … 6
	send(5) // grows twice with the head in the middle
	recv(next - want)
}

// TestConcurrentSendersKeepLinkFIFO has the eight peers of a nine-process
// mesh send five frames each into p0's inbox at once while p0 receives,
// so the ring grows under contention: every frame arrives once, and each
// link's frames arrive in the order they were sent.
func TestConcurrentSendersKeepLinkFIFO(t *testing.T) {
	const n, k = 9, 5
	eps := New(n, nil).Endpoints()
	var wg sync.WaitGroup
	for p := 1; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 1; r <= k; r++ {
				if err := eps[p].Send(0, transport.Frame{From: p, To: 0, Round: r}); err != nil {
					t.Errorf("p%d Send round %d: %v", p, r, err)
					eps[p].Close() // so the Recv below does not wait forever
					return
				}
			}
		}(p)
	}
	last := make([]int, n)
	for i := 0; i < (n-1)*k; i++ {
		f, err := eps[0].Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if f.Round != last[f.From]+1 {
			t.Fatalf("from p%d: round %d after round %d", f.From, f.Round, last[f.From])
		}
		last[f.From] = f.Round
	}
	wg.Wait()
}

// TestSendAfterCloseIsAnError sends into a closed mesh: the send fails
// with transport.ErrClosed, and the frames queued before Close still
// arrive, in order, before Recv reports closed.
func TestSendAfterCloseIsAnError(t *testing.T) {
	eps := New(3, nil).Endpoints()
	for r := 1; r <= 3; r++ {
		if err := eps[0].Send(2, transport.Frame{From: 0, To: 2, Round: r}); err != nil {
			t.Fatalf("Send round %d: %v", r, err)
		}
	}
	if err := eps[1].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eps[0].Send(2, transport.Frame{From: 0, To: 2, Round: 4}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close: got %v, want transport.ErrClosed", err)
	}
	for r := 1; r <= 3; r++ {
		if f, err := eps[2].Recv(); err != nil || f.Round != r {
			t.Fatalf("Recv after Close: frame %+v, error %v, want round %d", f, err, r)
		}
	}
	if _, err := eps[2].Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv of a drained closed inbox: got %v, want transport.ErrClosed", err)
	}
}

// TestMeshAllocations pins what building a nine-process mesh and its
// endpoints allocates: the mesh, its endpoint table, the frame block
// and the interface slice. A mesh of buffered channels read 30 (two
// objects per channel, one per endpoint).
func TestMeshAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { New(9, nil).Endpoints() })
	if allocs > 4 {
		t.Errorf("New(9, nil).Endpoints() allocates %.0f times, want at most 4", allocs)
	}
}
