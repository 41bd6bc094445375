// Package memnet is the in-process mesh: reliable FIFO links realized as
// one inbox per process that all its peers send into, with optional
// transport-level fault injection. An inbox is a FIFO ring of frames
// guarded by its own mutex and condition variable, and every ring of a
// mesh starts as a slice of one block of frames made with the mesh, so
// building a mesh costs a fixed handful of allocations whatever its size.
// It is the default substrate for the examples and for tests that want
// live goroutine concurrency without sockets.
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

// errClosed is what Send and Recv report once the mesh is closed.
var errClosed = fmt.Errorf("memnet: mesh: %w", transport.ErrClosed)

// Mesh is a full in-memory mesh of n endpoints.
type Mesh struct {
	eps    []endpoint // one per process; Endpoints hands out pointers into it
	filter DropFilter
	// limit is the most frames an inbox holds. Under the round protocol
	// (transport.RunNode) a peer p can have at most five frames queued
	// for q, duplicated by chaosnet: say q has just completed barrier r
	// on p's round-r frame. p's duplicate of that frame may still be
	// queued behind it; p has completed barrier r too and sent round r+1
	// twice; and p may have completed r+1, since q sent its own round-r+1
	// frame on completing r, and sent round r+2 twice. It cannot send
	// r+3 before q's round-r+2 frame, which q sends only after draining
	// its barrier r+1. That is 5(n-1) frames, which 5n covers, so a
	// sender that keeps the protocol never finds an inbox full.
	limit int
	once  sync.Once
}

// New builds a mesh of n endpoints. filter may be nil (no faults).
func New(n int, filter DropFilter) *Mesh {
	m := &Mesh{eps: make([]endpoint, n), filter: filter, limit: 5 * n}
	// Two rounds from each peer is what a mesh without duplicates holds
	// at most (the bound above without the copies); a ring grows only
	// past that. Each ring's capacity ends where the next one starts.
	size := 2 * max(n-1, 0)
	block := make([]transport.Frame, n*size)
	for i := range m.eps {
		e := &m.eps[i]
		e.mesh, e.id = m, proc.ID(i)
		e.ready.L = &e.mu
		e.ring = block[i*size : (i+1)*size : (i+1)*size]
	}
	return m
}

// Endpoints returns the n endpoints of the mesh.
func (m *Mesh) Endpoints() []transport.Endpoint {
	eps := make([]transport.Endpoint, len(m.eps))
	for i := range m.eps {
		eps[i] = &m.eps[i]
	}
	return eps
}

// endpoint is process id's side of the mesh: it sends into its peers'
// inboxes and receives from its own, the count frames at ring[head],
// ring[head+1], … (mod len(ring)).
type endpoint struct {
	mesh *Mesh
	id   proc.ID

	mu     sync.Mutex
	ready  sync.Cond // on mu: a frame was queued or the mesh closed
	ring   []transport.Frame
	head   int
	count  int
	closed bool
}

var _ transport.Endpoint = (*endpoint)(nil)

// Send implements transport.Endpoint.
func (e *endpoint) Send(to proc.ID, f transport.Frame) error {
	m := e.mesh
	if to < 0 || int(to) >= len(m.eps) {
		return fmt.Errorf("memnet: unknown peer %v", to)
	}
	if f.Has && m.filter != nil && m.filter(e.id, to, f.Round) {
		f.Has, f.Payload = false, "" // payload dropped, frame survives
	}
	return m.eps[to].push(f)
}

// push queues f at the tail of the inbox, doubling a full ring up to the
// mesh's limit.
func (e *endpoint) push(f transport.Frame) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	if e.count == len(e.ring) {
		if e.count >= e.mesh.limit {
			return fmt.Errorf("memnet: inbox of %v full (round protocol violated)", e.id)
		}
		ring := make([]transport.Frame, min(max(2*len(e.ring), 1), e.mesh.limit))
		k := copy(ring, e.ring[e.head:])
		copy(ring[k:], e.ring[:e.head])
		e.ring, e.head = ring, 0
	}
	e.ring[(e.head+e.count)%len(e.ring)] = f
	e.count++
	e.ready.Signal()
	return nil
}

// Recv implements transport.Endpoint. Frames queued before the mesh
// closed are still delivered, in order, before it reports closed.
func (e *endpoint) Recv() (transport.Frame, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.count == 0 {
		if e.closed {
			return transport.Frame{}, errClosed
		}
		e.ready.Wait()
	}
	f := e.ring[e.head]
	e.ring[e.head] = transport.Frame{} // the ring keeps no payload alive
	e.head = (e.head + 1) % len(e.ring)
	e.count--
	return f, nil
}

// Close implements transport.Endpoint. Closing any endpoint closes the
// mesh exactly once.
func (e *endpoint) Close() error {
	m := e.mesh
	m.once.Do(func() {
		for i := range m.eps {
			in := &m.eps[i]
			in.mu.Lock()
			in.closed = true
			in.ready.Broadcast()
			in.mu.Unlock()
		}
	})
	return nil
}
