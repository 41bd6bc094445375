// Package tcpnet is the socket mesh: every process listens on a loopback
// TCP port and dials every higher-numbered peer, yielding one reliable
// FIFO connection per unordered pair. Frames travel as newline-delimited
// JSON. This substrate demonstrates that every protocol in the library —
// built against the abstract synchronous model — runs unmodified over a
// real network stack.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"expensive/internal/proc"
	"expensive/internal/transport"
)

const (
	// dialAttempts bounds transport.DialRetry (at its default backoff) for
	// the mesh-construction dials, which race each listener coming up.
	dialAttempts = 3
	// recvTimeout bounds every endpoint Recv: a peer that stalls past it
	// fails the round with transport.ErrTimeout instead of wedging the node
	// forever. Rounds complete in milliseconds; this only has to sit below
	// any deadline a caller might be running under.
	recvTimeout = 30 * time.Second
)

// Mesh is a full TCP mesh over 127.0.0.1.
type Mesh struct {
	n      int
	conns  [][]net.Conn // conns[i][j]: i's connection to j (nil on diagonal)
	inbox  []chan frameOrErr
	done   chan struct{}   // closed by Close; unblocks pumps wedged on full inboxes
	epDone []chan struct{} // closed per endpoint by endpoint.Close
	// recvTimeout is the Recv bound in force: the constant, except in this
	// package's tests, which cannot wait that long for a stalled peer.
	recvTimeout time.Duration

	mu       sync.Mutex
	closed   bool
	epClosed []bool
	readers  sync.WaitGroup
}

type frameOrErr struct {
	f   transport.Frame
	err error
}

// New builds a connected mesh of n nodes on loopback ports. It returns an
// error if any listen/dial step fails.
func New(n int) (*Mesh, error) {
	m := &Mesh{
		n:           n,
		conns:       make([][]net.Conn, n),
		inbox:       make([]chan frameOrErr, n),
		done:        make(chan struct{}),
		epDone:      make([]chan struct{}, n),
		epClosed:    make([]bool, n),
		recvTimeout: recvTimeout,
	}
	for i := range m.conns {
		m.conns[i] = make([]net.Conn, n)
		m.inbox[i] = make(chan frameOrErr, 4*n)
		m.epDone[i] = make(chan struct{})
	}

	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("tcpnet: listen node %d: %w", i, err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	defer func() {
		for _, l := range listeners {
			_ = l.Close()
		}
	}()

	// Accept loop per listener: peers identify themselves with a hello line.
	type accepted struct {
		node int
		from int
		conn net.Conn
		err  error
	}
	acceptCh := make(chan accepted, n*n)
	var acceptWG sync.WaitGroup
	for i := 0; i < n; i++ {
		expected := i // node i accepts from peers j < i
		acceptWG.Add(1)
		go func(node int, l net.Listener) {
			defer acceptWG.Done()
			for k := 0; k < expected; k++ {
				conn, err := l.Accept()
				if err != nil {
					acceptCh <- accepted{node: node, err: err}
					return
				}
				var hello struct{ From int }
				if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&hello); err != nil {
					acceptCh <- accepted{node: node, err: fmt.Errorf("hello: %w", err)}
					return
				}
				acceptCh <- accepted{node: node, from: hello.From, conn: conn}
			}
		}(i, listeners[i])
	}

	// Dial peers with higher IDs.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conn, err := transport.DialRetry(context.Background(), "tcp", addrs[j], dialAttempts, 0)
			if err != nil {
				m.Close()
				return nil, fmt.Errorf("tcpnet: dial %d->%d: %w", i, j, err)
			}
			if err := json.NewEncoder(conn).Encode(struct{ From int }{From: i}); err != nil {
				m.Close()
				return nil, fmt.Errorf("tcpnet: hello %d->%d: %w", i, j, err)
			}
			m.conns[i][j] = conn
		}
	}

	acceptWG.Wait()
	close(acceptCh)
	for a := range acceptCh {
		if a.err != nil {
			m.Close()
			return nil, fmt.Errorf("tcpnet: accept at node %d: %w", a.node, a.err)
		}
		m.conns[a.node][a.from] = a.conn
	}

	// Reader pumps: one goroutine per connection endpoint.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || m.conns[i][j] == nil {
				continue
			}
			m.readers.Add(1)
			go m.pump(i, j, m.conns[i][j])
		}
	}
	return m, nil
}

// pump reads frames from owner's connection to peer and delivers them to
// owner's inbox. A decode failure is a real error only while both ends of
// the link are still open: once the mesh or either endpoint has been
// closed, the broken read is the teardown itself and the pump exits
// silently, so siblings of a closed endpoint keep exchanging frames
// undisturbed.
func (m *Mesh) pump(owner, peer int, conn net.Conn) {
	defer m.readers.Done()
	dec := json.NewDecoder(bufio.NewReader(conn))
	for {
		var f transport.Frame
		if err := dec.Decode(&f); err != nil {
			m.mu.Lock()
			quiet := m.closed || m.epClosed[owner] || m.epClosed[peer]
			m.mu.Unlock()
			if !quiet {
				select {
				case m.inbox[owner] <- frameOrErr{err: err}:
				default:
				}
			}
			return
		}
		// The delivery must not wedge the pump forever: if the owner stops
		// draining (it errored out, closed its endpoint, or the mesh is
		// being torn down), Close still has to be able to join this
		// goroutine.
		select {
		case m.inbox[owner] <- frameOrErr{f: f}:
		case <-m.done:
			return
		case <-m.epDone[owner]:
			return
		}
	}
}

// Endpoints returns the mesh's n endpoints.
func (m *Mesh) Endpoints() []transport.Endpoint {
	eps := make([]transport.Endpoint, m.n)
	for i := 0; i < m.n; i++ {
		id := proc.ID(i)
		eps[i] = &endpoint{mesh: m, id: id}
	}
	return eps
}

// Close tears the mesh down: it closes every connection, which makes the
// reader pumps exit, and then closes the inboxes so that a Recv issued
// after Close fails fast instead of blocking forever.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done) // wake pumps blocked on full inboxes
	for i := range m.conns {
		for j := range m.conns[i] {
			if c := m.conns[i][j]; c != nil {
				_ = c.Close()
			}
		}
	}
	go func() {
		// Inboxes can only be closed once no pump can write to them.
		m.readers.Wait()
		for _, ch := range m.inbox {
			close(ch)
		}
	}()
	return nil
}

type endpoint struct {
	mesh *Mesh
	id   proc.ID

	mu       sync.Mutex
	encoders map[proc.ID]*json.Encoder
}

var _ transport.Endpoint = (*endpoint)(nil)

// Send implements transport.Endpoint.
func (e *endpoint) Send(to proc.ID, f transport.Frame) error {
	if to < 0 || int(to) >= e.mesh.n || to == e.id {
		return fmt.Errorf("tcpnet: bad peer %v", to)
	}
	e.mesh.mu.Lock()
	down := e.mesh.closed || e.mesh.epClosed[e.id]
	e.mesh.mu.Unlock()
	if down {
		return fmt.Errorf("tcpnet: endpoint %v: %w", e.id, transport.ErrClosed)
	}
	conn := e.mesh.conns[e.id][to]
	if conn == nil {
		return fmt.Errorf("tcpnet: no connection %v -> %v", e.id, to)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.encoders == nil {
		e.encoders = make(map[proc.ID]*json.Encoder)
	}
	enc, ok := e.encoders[to]
	if !ok {
		enc = json.NewEncoder(conn)
		e.encoders[to] = enc
	}
	return enc.Encode(f)
}

// Recv implements transport.Endpoint. A peer that stalls past recvTimeout
// fails this round instead of wedging the node forever.
func (e *endpoint) Recv() (transport.Frame, error) {
	timer := time.NewTimer(e.mesh.recvTimeout)
	defer timer.Stop()
	select {
	case fe, ok := <-e.mesh.inbox[e.id]:
		if !ok {
			return transport.Frame{}, fmt.Errorf("tcpnet: mesh: %w", transport.ErrClosed)
		}
		if fe.err != nil {
			return transport.Frame{}, fe.err
		}
		return fe.f, nil
	case <-e.mesh.epDone[e.id]:
		return transport.Frame{}, fmt.Errorf("tcpnet: endpoint %v: %w", e.id, transport.ErrClosed)
	case <-timer.C:
		return transport.Frame{}, fmt.Errorf("tcpnet: node %v: no frame within %v (stalled peer): %w",
			e.id, e.mesh.recvTimeout, transport.ErrTimeout)
	}
}

// Close implements transport.Endpoint. It is scoped to this endpoint: it
// severs only this node's connections and wakes only this node's pumps,
// leaving the rest of the mesh exchanging frames. Use Mesh.Close for full
// teardown. Idempotent.
func (e *endpoint) Close() error { return e.mesh.closeEndpoint(int(e.id)) }

// closeEndpoint severs one node's connections. Because each conns[i][j]
// pairs with conns[j][i] as the two ends of one TCP connection, siblings'
// pumps on links to this node observe a read failure — which they treat
// as the expected teardown (see pump), not an error.
func (m *Mesh) closeEndpoint(i int) error {
	m.mu.Lock()
	if m.closed || m.epClosed[i] {
		m.mu.Unlock()
		return nil
	}
	m.epClosed[i] = true
	m.mu.Unlock()
	close(m.epDone[i])
	for _, c := range m.conns[i] {
		if c != nil {
			_ = c.Close()
		}
	}
	return nil
}
