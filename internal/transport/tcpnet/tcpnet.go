// Package tcpnet is the socket mesh: every process listens on a loopback
// TCP port and dials every higher-numbered peer, yielding one reliable
// FIFO connection per unordered pair. A connection opens with the
// dialer's ID as a hello, then carries transport.Frame values; both travel
// as transport.WriteFrame frames, read under an explicit size bound. This
// substrate demonstrates that every protocol in the library —
// built against the abstract synchronous model — runs unmodified over a
// real network stack.
package tcpnet

import (
	"bufio"
	"context"
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
	// recvTimeout bounds every endpoint Recv and every hello: a peer that
	// stalls past it fails the round (or New) with transport.ErrTimeout
	// instead of wedging the node forever. Rounds complete in
	// milliseconds; this only has to sit below any deadline a caller might
	// be running under.
	recvTimeout = 30 * time.Second
	// maxHello bounds the hello frame, a dialer's decimal ID: a stray
	// connection announcing more is refused before anything is allocated.
	maxHello = 32
)

// Mesh is a full TCP mesh over 127.0.0.1.
type Mesh struct {
	n      int
	conns  [][]net.Conn // conns[i][j]: i's connection to j (nil on diagonal)
	inbox  []chan frameOrErr
	done   chan struct{}   // closed by Close; unblocks pumps wedged on full inboxes
	epDone []chan struct{} // closed per endpoint by endpoint.Close
	// recvTimeout is the Recv and hello bound in force: the constant,
	// except in this package's tests, which cannot wait that long for a
	// stalled peer.
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

	// Accept loop per listener: peers identify themselves with a hello.
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
			wired := make([]bool, node)
			for k := 0; k < expected; k++ {
				conn, err := l.Accept()
				if err != nil {
					acceptCh <- accepted{node: node, err: err}
					return
				}
				from, err := readHello(conn, wired, m.recvTimeout)
				if err != nil {
					_ = conn.Close()
					acceptCh <- accepted{node: node, err: err}
					return
				}
				acceptCh <- accepted{node: node, from: from, conn: conn}
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
			if err := transport.WriteFrame(conn, i); err != nil {
				m.Close()
				return nil, fmt.Errorf("tcpnet: hello %d->%d: %w", i, j, err)
			}
			m.conns[i][j] = conn
		}
	}

	acceptWG.Wait()
	close(acceptCh)
	var acceptErr error
	for a := range acceptCh {
		if a.err == nil {
			m.conns[a.node][a.from] = a.conn // wired, so Close reaches it
		} else if acceptErr == nil {
			acceptErr = fmt.Errorf("tcpnet: accept at node %d: %w", a.node, a.err)
		}
	}
	if acceptErr != nil {
		m.Close()
		return nil, acceptErr
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

// readHello reads the hello a peer opens its connection with and returns
// the peer's ID. The hello must arrive within timeout and fit maxHello. A
// listener accepts only from lower IDs, each once, so wired has one slot
// per such peer: a hello outside [0, len(wired)) or naming a peer already
// wired is refused rather than indexing past the mesh or replacing a live
// connection.
func readHello(conn net.Conn, wired []bool, timeout time.Duration) (int, error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return 0, fmt.Errorf("hello: set read deadline: %w", err)
	}
	var from int
	if err := transport.ReadFrame(conn, maxHello, &from); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return 0, fmt.Errorf("hello: clear read deadline: %w", err)
	}
	switch {
	case from < 0 || from >= len(wired):
		return 0, fmt.Errorf("hello: peer %d outside [0, %d)", from, len(wired))
	case wired[from]:
		return 0, fmt.Errorf("hello: peer %d already connected", from)
	default:
		wired[from] = true
		return from, nil
	}
}

// pump reads frames from owner's connection to peer and delivers them to
// owner's inbox, stamped as sent by peer to owner: the link, not the
// frame, names the sender, as on an authenticated channel, so a peer
// cannot pass its frame off as another's. A decode failure is a real error only while both ends of
// the link are still open: once the mesh or either endpoint has been
// closed, the broken read is the teardown itself and the pump exits
// silently, so siblings of a closed endpoint keep exchanging frames
// undisturbed.
func (m *Mesh) pump(owner, peer int, conn net.Conn) {
	defer m.readers.Done()
	r := bufio.NewReader(conn)
	for {
		var f transport.Frame
		if err := transport.ReadFrame(r, transport.MaxFrame, &f); err != nil {
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
		f.From, f.To = peer, owner
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

	mu sync.Mutex // serializes this endpoint's frames
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
	return transport.WriteFrame(conn, f)
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
