package dist

import (
	"fmt"
	"sync"
	"time"

	"expensive/internal/proc"
	"expensive/internal/transport"
	"expensive/internal/transport/chaosnet"
)

// wireConn is the worker-side view of the coordinator link: the subset of
// Conn the worker loop needs, so a chaos wrapper can slot in between.
type wireConn interface {
	Send(m *Message) error
	Recv(timeout time.Duration) (*Message, error)
	Close() error
}

var (
	_ wireConn = (*Conn)(nil)
	_ wireConn = (*chaosConn)(nil)
)

// CoordinatorChaosNode is the coordinator's identity in a chaos plan's
// link space: worker w's uplink is the (w -> 63) stream, its downlink
// (63 -> w). Plans built with Env{N: 0} (the opaque-ID default) cover it.
const CoordinatorChaosNode proc.ID = 63

// chaosConn injects deterministic faults into a worker's coordinator
// link. Faults are drawn from a chaosnet.Plan keyed by direction and a
// per-direction message sequence number, so a given (plan, node) pair
// always loses the same messages — the soak harness's reproducibility
// hinges on that.
//
// Control messages that establish or end a session (hello, job, done,
// error) are immune: faulting those models a connect failure, which the
// dial retry already covers, not a lossy link. Everything else — units,
// results, unit failures, heartbeats, events — is droppable or delayable,
// and every loss is one the dist recovery machinery must absorb: a lost
// unit surfaces via the unit deadline, a lost result via dedup plus
// reassignment, lost heartbeats via worker death and reconnect.
type chaosConn struct {
	inner *Conn
	plan  *chaosnet.Plan
	node  proc.ID

	mu      sync.Mutex
	sendSeq int
	recvSeq int
}

func newChaosConn(inner *Conn, plan *chaosnet.Plan, node proc.ID) *chaosConn {
	return &chaosConn{inner: inner, plan: plan, node: node}
}

// wireRefused lists the chaos kinds chaosConn cannot apply: it drops,
// delays and cuts whole messages (a Partition window is a drop), and has no
// frame to resend, hold back or checksum. Worker.Run refuses a plan that
// uses one, which would otherwise run clean under the plan's name.
var wireRefused = []chaosnet.Kind{chaosnet.Duplicate, chaosnet.Reorder, chaosnet.Corrupt}

// immune reports whether a message kind is exempt from fault injection.
func immune(k MsgKind) bool {
	switch k {
	case MsgHello, MsgJob, MsgDone, MsgError:
		return true
	}
	return false
}

func (c *chaosConn) Send(m *Message) error {
	if immune(m.Kind) {
		return c.inner.Send(m)
	}
	c.mu.Lock()
	seq := c.sendSeq
	c.sendSeq++
	c.mu.Unlock()
	f := c.plan.Faults(c.node, CoordinatorChaosNode, seq)
	if f.Cut {
		_ = c.inner.Close()
		return fmt.Errorf("dist: chaos cut uplink at seq %d: %w", seq, transport.ErrClosed)
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Drop {
		return nil // swallowed by the wire; recovery is the coordinator's job
	}
	return c.inner.Send(m)
}

func (c *chaosConn) Recv(timeout time.Duration) (*Message, error) {
	for {
		m, err := c.inner.Recv(timeout)
		if err != nil {
			return nil, err
		}
		if immune(m.Kind) {
			return m, nil
		}
		c.mu.Lock()
		seq := c.recvSeq
		c.recvSeq++
		c.mu.Unlock()
		f := c.plan.Faults(CoordinatorChaosNode, c.node, seq)
		if f.Cut {
			_ = c.inner.Close()
			return nil, fmt.Errorf("dist: chaos cut downlink at seq %d: %w", seq, transport.ErrClosed)
		}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Drop {
			continue // lost in flight; the unit deadline or dedup recovers it
		}
		return m, nil
	}
}

func (c *chaosConn) Close() error {
	return c.inner.Close()
}
