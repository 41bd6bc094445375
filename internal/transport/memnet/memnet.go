// Package memnet is the in-process mesh: reliable FIFO links realized as
// buffered Go channels, one inbox per process that all its peers send
// into, with optional transport-level fault injection. It is the default
// substrate for the examples and for tests that want live goroutine
// concurrency without sockets.
package memnet

import (
	"fmt"
	"sync"

	"expensive/internal/proc"
	"expensive/internal/transport"
)

// DropFilter decides whether the payload of a frame is dropped in flight
// (the frame itself still arrives, preserving round synchrony — this is
// exactly a transport-level send/receive-omission fault).
type DropFilter func(from, to proc.ID, round int) bool

// Mesh is a full in-memory mesh of n endpoints.
type Mesh struct {
	n      int
	inbox  []chan transport.Frame
	filter DropFilter

	mu     sync.Mutex
	closed bool
}

// New builds a mesh of n endpoints. filter may be nil (no faults).
func New(n int, filter DropFilter) *Mesh {
	m := &Mesh{n: n, inbox: make([]chan transport.Frame, n), filter: filter}
	for i := range m.inbox {
		// A peer runs at most one round ahead of the receiver (round r+2
		// waits for the receiver's r+1 frame), so at most two rounds of
		// frames per peer are in flight, and chaosnet may duplicate each:
		// 4(n-1) frames, which 4n covers, keep senders from ever blocking.
		m.inbox[i] = make(chan transport.Frame, 4*n)
	}
	return m
}

// Endpoints returns the n endpoints of the mesh.
func (m *Mesh) Endpoints() []transport.Endpoint {
	eps := make([]transport.Endpoint, m.n)
	for i := 0; i < m.n; i++ {
		eps[i] = &endpoint{mesh: m, id: proc.ID(i)}
	}
	return eps
}

type endpoint struct {
	mesh *Mesh
	id   proc.ID
}

var _ transport.Endpoint = (*endpoint)(nil)

// Send implements transport.Endpoint.
func (e *endpoint) Send(to proc.ID, f transport.Frame) error {
	if to < 0 || int(to) >= e.mesh.n {
		return fmt.Errorf("memnet: unknown peer %v", to)
	}
	if f.Has && e.mesh.filter != nil && e.mesh.filter(e.id, to, f.Round) {
		f.Has, f.Payload = false, "" // payload dropped, frame survives
	}
	select {
	case e.mesh.inbox[to] <- f:
		return nil
	default:
		return fmt.Errorf("memnet: inbox of %v full (round protocol violated)", to)
	}
}

// Recv implements transport.Endpoint.
func (e *endpoint) Recv() (transport.Frame, error) {
	f, ok := <-e.mesh.inbox[e.id]
	if !ok {
		return transport.Frame{}, fmt.Errorf("memnet: mesh: %w", transport.ErrClosed)
	}
	return f, nil
}

// Close implements transport.Endpoint. Closing any endpoint closes the
// mesh exactly once.
func (e *endpoint) Close() error {
	e.mesh.mu.Lock()
	defer e.mesh.mu.Unlock()
	if !e.mesh.closed {
		e.mesh.closed = true
		for _, ch := range e.mesh.inbox {
			close(ch)
		}
	}
	return nil
}
