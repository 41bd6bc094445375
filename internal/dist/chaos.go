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

// RefuseChaos returns an error naming the profile and the kind if plan
// uses a chaos kind a worker's coordinator link cannot apply: chaosConn
// drops, delays and cuts whole messages (a Partition window is a drop),
// and has no frame to resend, hold back or checksum. Such a plan would
// otherwise run clean under its name. A nil plan is a clean link.
func RefuseChaos(plan *chaosnet.Plan) error {
	for _, k := range []chaosnet.Kind{chaosnet.Duplicate, chaosnet.Reorder, chaosnet.Corrupt} {
		if plan.Uses(k) {
			return fmt.Errorf("chaos profile %q uses %s, which a worker's coordinator link cannot inject (it drops, delays, partitions and cuts)",
				plan.Name(), k)
		}
	}
	return nil
}

// immune reports whether a message kind is exempt from fault injection.
func immune(k MsgKind) bool {
	switch k {
	case MsgHello, MsgJob, MsgDone, MsgError:
		return true
	}
	return false
}

// fault claims the next sequence number of one direction (up: worker to
// coordinator) and applies the plan's verdict on it: a Cut closes the link
// and is returned as ErrClosed, a Delay sleeps, and drop reports the
// message lost in flight — recovery is the coordinator's job (unit
// deadline, dedup, reassignment).
func (c *chaosConn) fault(up bool) (drop bool, err error) {
	from, to, seq, link := c.node, CoordinatorChaosNode, &c.sendSeq, "uplink"
	if !up {
		from, to, seq, link = CoordinatorChaosNode, c.node, &c.recvSeq, "downlink"
	}
	c.mu.Lock()
	n := *seq
	*seq++
	c.mu.Unlock()
	f := c.plan.Faults(from, to, n)
	if f.Cut {
		_ = c.inner.Close()
		return false, fmt.Errorf("dist: chaos cut %s at seq %d: %w", link, n, transport.ErrClosed)
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	return f.Drop, nil
}

func (c *chaosConn) Send(m *Message) error {
	if !immune(m.Kind) {
		if drop, err := c.fault(true); drop || err != nil {
			return err
		}
	}
	return c.inner.Send(m)
}

func (c *chaosConn) Recv(timeout time.Duration) (*Message, error) {
	for {
		m, err := c.inner.Recv(timeout)
		if err != nil || immune(m.Kind) {
			return m, err
		}
		drop, err := c.fault(false)
		if err != nil {
			return nil, err
		}
		if !drop {
			return m, nil
		}
	}
}

func (c *chaosConn) Close() error {
	return c.inner.Close()
}
