// Package transport runs the library's protocol machines over real
// message channels instead of the trace-recording simulator: one goroutine
// per process, frames exchanged through an Endpoint (in-memory channels in
// memnet, TCP loopback sockets in tcpnet).
//
// Synchrony is implemented with the classical bulk-synchronous trick: in
// every round each node sends exactly one frame to every peer — empty if
// the protocol has nothing to say — and waits for n-1 round-stamped frames
// before stepping its machine. Over reliable FIFO links this realizes the
// synchronous round model of §2 without a central coordinator, and fault
// injection (dropping payloads while keeping the empty frame) realizes the
// omission-failure model on a live network.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Typed transport failures. Every mesh implementation wraps its own
// timeout and shutdown errors with these sentinels so callers classify
// failures with errors.Is instead of string matching: the dist scheduler
// distinguishes a stalled peer (ErrTimeout, reassign its work) from an
// orderly teardown (ErrClosed, stop quietly), and reconnecting workers
// retry exactly the errors a redial can cure.
var (
	// ErrTimeout marks a receive that gave up waiting on a peer.
	ErrTimeout = errors.New("transport: timeout")
	// ErrClosed marks an operation on a closed endpoint or mesh.
	ErrClosed = errors.New("transport: closed")
)

// DialRetry dials with bounded exponential backoff: up to attempts tries,
// waiting backoff, 2*backoff, ... (capped at one second) between them.
// It exists because both mesh construction and distributed workers race
// their peer's listener coming up — a failed first dial should wait for
// the listener, not kill the run. attempts <= 0 means 1; backoff <= 0
// defaults to 25ms. Cancelling ctx ends a dial or a wait at once, with an
// error wrapping ctx.Err().
func DialRetry(ctx context.Context, network, addr string, attempts int, backoff time.Duration) (net.Conn, error) {
	if attempts <= 0 {
		attempts = 1
	}
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	const maxBackoff = time.Second
	var d net.Dialer
	var lastErr error
	for i := 0; i < attempts; i++ {
		conn, err := d.DialContext(ctx, network, addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if i == attempts-1 {
			break
		}
		wait := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			wait.Stop()
			return nil, fmt.Errorf("transport: dial %s %s: %w", network, addr, ctx.Err())
		case <-wait.C:
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	return nil, fmt.Errorf("transport: dial %s %s: %d attempts: %w", network, addr, attempts, lastErr)
}

// Frame is the wire unit: one per (sender, receiver, round), possibly
// empty. Empty frames carry the round structure; payloads carry protocol
// messages.
type Frame struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Round   int    `json:"round"`
	Has     bool   `json:"has"`
	Payload string `json:"payload,omitempty"`
}

// Endpoint is one process's connection to the mesh.
type Endpoint interface {
	// Send transmits a frame to a peer. It must not block indefinitely when
	// all nodes follow the round protocol.
	Send(to proc.ID, f Frame) error
	// Recv returns the next incoming frame from any peer.
	Recv() (Frame, error)
	// Close releases the endpoint.
	Close() error
}

// NodeResult is the outcome of one node's run.
type NodeResult struct {
	ID       proc.ID
	Decision msg.Value
	Decided  bool
	// Sent counts non-empty frames (protocol messages) sent.
	Sent int
	Err  error
}

// RunNode drives one machine for the given number of rounds over an
// endpoint. It returns when all rounds have completed or an error occurs.
//
// The inbox passed to machine.Step is lent for the call only, as the
// engine lends its own (see sim.Machine): RunNode refills the same slice
// every round, in sender order, which with the round and the receiver
// fixed is msg.Key.Compare order.
func RunNode(ep Endpoint, n int, id proc.ID, machine sim.Machine, rounds int) NodeResult {
	res := NodeResult{ID: id}
	out := machine.Init()
	// Early frames are kept one per (round, sender), first frame winning:
	// a peer may finish round r and emit r+1 before we drain r, and a
	// chaotic link may duplicate or reorder frames. Keeping exactly one
	// frame per (round, sender) and dropping stale rounds makes the
	// bulk-synchronous step immune to both — the round barrier itself
	// provides the dedup point, so no sequence numbers are needed on the
	// wire. Frames past the last round are dropped too, so a peer cannot
	// make the buffer grow without bound. A peer that keeps the protocol
	// is at most one round ahead, and its round-r+1 frame waits in the
	// next table; future holds frames of round r+2 and later, and is made
	// on the first one.
	var future map[int]map[int]Frame

	// The round's working state lives for the whole run. sends is out
	// expanded per peer (sim.Expand); outbox[p] is the frame sent to p;
	// frames[p] is the first frame from sender p for the current round
	// exactly when its Round is r, and next[p] the first for round r+1
	// exactly when its Round is r+1, so neither table is ever cleared.
	// A node of up to 17 processes keeps all four on the stack.
	var (
		sendStack                    [16]sim.Outgoing
		outStack, inStack, nextStack [17]Frame
	)
	sends, outbox, frames, next := sendStack[:0], outStack[:], inStack[:], nextStack[:]
	if n > len(inStack) {
		outbox, frames, next = make([]Frame, n), make([]Frame, n), make([]Frame, n)
	}
	outbox, frames, next = outbox[:n], frames[:n], next[:n]
	received := make([]msg.Message, 0, max(n-1, 0))
	for r := 1; r <= rounds; r++ {
		for p := range outbox {
			outbox[p] = Frame{From: int(id), To: p, Round: r}
		}
		sends = sim.Expand(sends[:0], out, n, id)
		for _, o := range sends {
			if o.To >= 0 && int(o.To) < n {
				outbox[o.To].Has, outbox[o.To].Payload = true, o.Payload
			}
		}
		for p := proc.ID(0); p < proc.ID(n); p++ {
			if p == id {
				continue
			}
			if outbox[p].Has {
				res.Sent++
			}
			if err := ep.Send(p, outbox[p]); err != nil {
				res.Err = fmt.Errorf("%s round %d: send to %s: %w", id, r, p, err)
				return res
			}
		}

		// future's frames of round r arrived before next's (they came
		// while this node was two or more rounds behind), so they move
		// first for the first frame to win.
		got := 0
		for p, f := range future[r] {
			frames[p] = f
			got++
		}
		delete(future, r)
		for p := range next {
			if next[p].Round == r && frames[p].Round != r {
				frames[p] = next[p]
				got++
			}
		}
		for got < n-1 {
			f, err := ep.Recv()
			if err != nil {
				res.Err = fmt.Errorf("%s round %d: recv: %w", id, r, err)
				return res
			}
			if f.Round < r || f.Round > rounds || f.From == int(id) || f.From < 0 || f.From >= n {
				continue // stale duplicate of a completed round, past the horizon, or nonsense
			}
			if f.Round == r {
				if frames[f.From].Round != r {
					frames[f.From] = f
					got++
				}
				continue
			}
			if f.Round == r+1 {
				if next[f.From].Round != r+1 {
					next[f.From] = f
				}
				continue
			}
			if future == nil {
				future = make(map[int]map[int]Frame)
			}
			ahead := future[f.Round]
			if ahead == nil {
				ahead = make(map[int]Frame, n-1)
				future[f.Round] = ahead
			}
			if _, dup := ahead[f.From]; !dup {
				ahead[f.From] = f
			}
		}

		// The barrier is complete: every peer's entry holds round r.
		received = received[:0]
		for p := range frames {
			if f := &frames[p]; f.Has {
				received = append(received, msg.Message{
					Sender:   proc.ID(f.From),
					Receiver: id,
					Round:    r,
					Payload:  f.Payload,
				})
			}
		}
		out = machine.Step(r, received)
	}

	if v, ok := machine.Decision(); ok {
		res.Decision, res.Decided = v, true
	}
	return res
}

// Cluster couples endpoints with the machines they drive.
type Cluster struct {
	N         int
	Endpoints []Endpoint
	Factory   sim.Factory
	Proposals []msg.Value
	Rounds    int
}

// Run starts one goroutine per node, waits for all of them, and returns
// the per-node results (indexed by process ID).
func (c Cluster) Run() ([]NodeResult, error) {
	if len(c.Endpoints) != c.N || len(c.Proposals) != c.N {
		return nil, fmt.Errorf("cluster: need %d endpoints and proposals, have %d/%d",
			c.N, len(c.Endpoints), len(c.Proposals))
	}
	if c.Rounds <= 0 {
		return nil, fmt.Errorf("cluster: rounds must be positive")
	}
	results := make([]NodeResult, c.N)
	var wg sync.WaitGroup
	for i := 0; i < c.N; i++ {
		id := proc.ID(i)
		machine := c.Factory(id, c.Proposals[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[id] = RunNode(c.Endpoints[id], c.N, id, machine, c.Rounds)
		}()
	}
	wg.Wait()
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("node %d: %w", i, results[i].Err)
		}
	}
	return results, nil
}

// CommonDecision folds node results into the unique decision of the given
// group, mirroring sim.Execution.CommonDecision for live runs.
func CommonDecision(results []NodeResult, group proc.Set) (msg.Value, error) {
	var common msg.Value
	first := true
	for _, id := range group.Members() {
		if int(id) >= len(results) {
			return msg.NoDecision, fmt.Errorf("%s is not a node of this cluster (n=%d)", id, len(results))
		}
		r := results[id]
		if !r.Decided {
			return msg.NoDecision, fmt.Errorf("%s undecided", id)
		}
		if first {
			common, first = r.Decision, false
		} else if r.Decision != common {
			return msg.NoDecision, fmt.Errorf("%s decided %q, others %q", id, r.Decision, common)
		}
	}
	if first {
		return msg.NoDecision, fmt.Errorf("empty group")
	}
	return common, nil
}
