package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"expensive/internal/transport"
)

// ProtocolVersion gates coordinator/worker compatibility: a hello with a
// different version is rejected at handshake. Version 2 added
// MsgUnitFailed (unit-level failure without worker death). Version 3
// changed no message: it marks adversary.StreamVersion 2, so a fleet of
// mixed binaries fails at hello instead of folding units drawn from two
// random streams into one report. Bump it with every StreamVersion bump.
const ProtocolVersion = 3

// maxHello bounds the one frame the coordinator reads from a dialer it
// knows nothing about: a hello is a version and a name, so a stranger
// announcing more is cut off before anything is allocated for it.
const maxHello = 4 << 10

// MsgKind discriminates wire messages.
type MsgKind string

const (
	// MsgHello is the worker's opening message.
	MsgHello MsgKind = "hello"
	// MsgJob is the coordinator's reply: the campaign to work on.
	MsgJob MsgKind = "job"
	// MsgUnit assigns one work unit to a worker.
	MsgUnit MsgKind = "unit"
	// MsgResult returns one completed unit.
	MsgResult MsgKind = "result"
	// MsgHeartbeat is the worker's periodic liveness beacon.
	MsgHeartbeat MsgKind = "heartbeat"
	// MsgEvent forwards one obs trace event (a JSONL line) from worker
	// to coordinator.
	MsgEvent MsgKind = "event"
	// MsgUnitFailed reports that one unit failed worker-side; the worker
	// stays alive and keeps serving other units. The coordinator requeues
	// the unit against its retry budget, quarantining it when exhausted.
	MsgUnitFailed MsgKind = "unit_failed"
	// MsgError reports a fatal worker-side harness failure.
	MsgError MsgKind = "error"
	// MsgDone tells a worker the campaign is over; the worker exits
	// cleanly.
	MsgDone MsgKind = "done"
)

// UnitFailed is the MsgUnitFailed payload.
type UnitFailed struct {
	Unit  int    `json:"unit"`
	Error string `json:"error"`
}

// Hello opens a worker connection.
type Hello struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
}

// Message is the wire envelope: Kind plus the matching payload field.
type Message struct {
	Kind   MsgKind         `json:"kind"`
	Hello  *Hello          `json:"hello,omitempty"`
	Job    *Job            `json:"job,omitempty"`
	Unit   *Unit           `json:"unit,omitempty"`
	Result *Result         `json:"result,omitempty"`
	Failed *UnitFailed     `json:"failed,omitempty"`
	Event  json.RawMessage `json:"event,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Conn carries messages over a TCP connection, one transport frame
// (transport.WriteFrame/ReadFrame) each. Sends are serialized by a mutex —
// heartbeats and results share one connection — while Recv is
// single-reader by construction.
type Conn struct {
	c net.Conn

	wmu sync.Mutex
}

// NewConn wraps an established connection.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Dial connects to a coordinator with bounded-backoff retry.
func Dial(addr string, attempts int, backoff time.Duration) (*Conn, error) {
	return dial(context.Background(), addr, attempts, backoff)
}

// dial is Dial under a context: cancelling it ends the retry at once.
func dial(ctx context.Context, addr string, attempts int, backoff time.Duration) (*Conn, error) {
	c, err := transport.DialRetry(ctx, "tcp", addr, attempts, backoff)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Send writes one framed message.
func (c *Conn) Send(m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := transport.WriteFrame(c.c, m); err != nil {
		return fmt.Errorf("dist: send %s: %w", m.Kind, err)
	}
	return nil
}

// Recv reads one framed message. A positive timeout arms a read deadline
// covering the whole frame — the coordinator's dead-worker detector and
// the worker's handshake guard; 0 blocks indefinitely.
func (c *Conn) Recv(timeout time.Duration) (*Message, error) {
	return c.recv(transport.MaxFrame, timeout)
}

// recv is Recv with the caller's bound on the announced frame length.
func (c *Conn) recv(limit int, timeout time.Duration) (*Message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.c.SetReadDeadline(deadline); err != nil {
		return nil, fmt.Errorf("dist: set read deadline: %w", err)
	}
	var m Message
	if err := transport.ReadFrame(c.c, limit, &m); err != nil {
		return nil, fmt.Errorf("dist: recv: %w", err)
	}
	return &m, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }
