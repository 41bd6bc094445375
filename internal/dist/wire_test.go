package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// pipeConns returns both ends of an in-memory connection wrapped as wire
// Conns.
func pipeConns() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestWireRoundTrip(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()

	sent := &Message{Kind: MsgJob, Job: huntJob()}
	errc := make(chan error, 1)
	go func() { errc <- a.Send(sent) }()
	got, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got.Kind != MsgJob || got.Job == nil || got.Job.Hunt == nil {
		t.Fatalf("round trip dropped payload: %+v", got)
	}
	if got.Job.Hunt.Protocol != "floodset" || got.Job.Hunt.Seeds.To != 64 {
		t.Errorf("job fields corrupted in transit: %+v", got.Job.Hunt)
	}
}

func TestWireRecvTimeout(t *testing.T) {
	a, b := pipeConns()
	defer a.Close()
	defer b.Close()

	start := time.Now()
	if _, err := b.Recv(50 * time.Millisecond); err == nil {
		t.Fatal("Recv on a silent connection returned without error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Recv took %v; the deadline did not bound it", d)
	}
	_ = a
}

// TestWireOversizeFrame: a peer announcing a frame beyond maxFrame is
// rejected before any allocation of that size.
func TestWireOversizeFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	conn := NewConn(b)
	defer conn.Close()

	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(maxFrame+1))
	go a.Write(prefix[:])
	_, err := conn.Recv(time.Second)
	if err == nil || !strings.Contains(err.Error(), "frame") {
		t.Fatalf("oversize frame not rejected: %v", err)
	}
}

// TestHelloOversizeFrame: before the hello the dialer is a stranger, so
// the coordinator reads its first frame under maxHello, not maxFrame — a
// prefix announcing a megabyte gets the connection closed at once, rather
// than a megabyte allocated and the heartbeat timeout spent waiting for
// bytes that never come.
func TestHelloOversizeFrame(t *testing.T) {
	c := &Coordinator{Job: huntJob(), HeartbeatTimeout: 5 * time.Second}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.shutdown()
	conn, err := net.Dial("tcp", c.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], 1<<20)
	if _, err := conn.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(prefix[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("coordinator kept a connection announcing a 1 MiB hello open: %v", err)
	}
}

// TestHelloVersionGate: the coordinator answers a hello of its own
// protocol version with the job and any other with an error naming both
// versions — which is how a worker built before a stream-version bump is
// kept out of a campaign instead of contributing units drawn from the
// old stream.
func TestHelloVersionGate(t *testing.T) {
	c := &Coordinator{Job: huntJob()}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.shutdown()
	for _, tc := range []struct {
		version int
		want    MsgKind
	}{
		{ProtocolVersion - 1, MsgError},
		{ProtocolVersion + 1, MsgError},
		{ProtocolVersion, MsgJob},
	} {
		conn, err := Dial(c.ListenAddr(), 3, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(&Message{Kind: MsgHello, Hello: &Hello{Version: tc.version, Name: "probe"}}); err != nil {
			t.Fatal(err)
		}
		m, err := conn.Recv(5 * time.Second)
		conn.Close()
		if err != nil {
			t.Fatalf("hello v%d: %v", tc.version, err)
		}
		if m.Kind != tc.want {
			t.Errorf("hello v%d answered with %q, want %q", tc.version, m.Kind, tc.want)
		}
		if tc.want == MsgError {
			for _, want := range []string{fmt.Sprint(tc.version), fmt.Sprint(ProtocolVersion)} {
				if !strings.Contains(m.Error, want) {
					t.Errorf("hello v%d: refusal %q does not name version %s", tc.version, m.Error, want)
				}
			}
		}
	}
}
