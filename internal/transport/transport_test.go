package transport_test

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/cheap"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/protocols/weak"
	"expensive/internal/sim"
	"expensive/internal/transport"
	"expensive/internal/transport/memnet"
	"expensive/internal/transport/tcpnet"
)

func uniform(n int, v msg.Value) []msg.Value {
	out := make([]msg.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

var errScriptEnd = errors.New("script exhausted")

// scripted is an Endpoint whose Recv replays a fixed list of frames, then
// fails with errScriptEnd, and whose Send logs every frame.
type scripted struct {
	frames []transport.Frame
	next   int
	sent   []transport.Frame
}

func (e *scripted) Send(_ proc.ID, f transport.Frame) error {
	e.sent = append(e.sent, f)
	return nil
}

func (e *scripted) Recv() (transport.Frame, error) {
	if e.next == len(e.frames) {
		return transport.Frame{}, errScriptEnd
	}
	f := e.frames[e.next]
	e.next++
	return f, nil
}

func (e *scripted) Close() error { return nil }

// rewind replays the script from its start with an empty send log that
// keeps its capacity, so a rerun allocates nothing in the endpoint.
func (e *scripted) rewind() { e.next, e.sent = 0, e.sent[:0] }

// TestRunNodeDropsFramesPastHorizon feeds a one-round node frames for
// many distinct rounds beyond its last before the frame it waits for. The
// node must drop them, not buffer one map per round: its allocations may
// not grow with their number.
func TestRunNodeDropsFramesPastHorizon(t *testing.T) {
	allocs := func(far int) float64 {
		ep := &scripted{}
		for i := 0; i < far; i++ {
			ep.frames = append(ep.frames, transport.Frame{From: 1, To: 0, Round: 2 + i, Has: true, Payload: "x"})
		}
		ep.frames = append(ep.frames, transport.Frame{From: 1, To: 0, Round: 1})
		return testing.AllocsPerRun(10, func() {
			ep.rewind()
			if res := transport.RunNode(ep, 2, 0, cheap.Silent()(0, msg.Zero), 1); res.Err != nil {
				t.Fatal(res.Err)
			}
		})
	}
	if none, many := allocs(0), allocs(256); many > none {
		t.Errorf("RunNode allocates %.0f times with 256 frames past its horizon, %.0f with none", many, none)
	}
}

// namer says its name to sim.Everyone in round 1 and keeps what it hears.
type namer struct {
	id    proc.ID
	out   sim.Broadcast
	heard []msg.Message
}

func (m *namer) Init() []sim.Outgoing { return m.out.Send(m.id.String()) }

func (m *namer) Step(_ int, received []msg.Message) []sim.Outgoing {
	m.heard = append(m.heard, received...)
	return nil
}

func (m *namer) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (m *namer) Quiescent() bool             { return true }

// TestRunNodeDeliversEveryone runs one round over memnet in which every
// node says its name to sim.Everyone: RunNode must deliver it to all n - 1
// peers and not to the node itself, so every node hears each other node
// once and counts n - 1 sends.
func TestRunNodeDeliversEveryone(t *testing.T) {
	const n = 5
	machines := make([]*namer, n)
	factory := func(id proc.ID, _ msg.Value) sim.Machine {
		machines[id] = &namer{id: id}
		return machines[id]
	}
	eps := memnet.New(n, nil).Endpoints()
	defer eps[0].Close() // closing one endpoint closes the mesh
	res, err := transport.Cluster{N: n, Endpoints: eps, Factory: factory, Proposals: uniform(n, msg.Zero), Rounds: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range machines {
		var want []msg.Message
		for p := proc.ID(0); p < n; p++ {
			if p != proc.ID(id) {
				want = append(want, msg.Message{Sender: p, Receiver: proc.ID(id), Round: 1, Payload: p.String()})
			}
		}
		if !reflect.DeepEqual(m.heard, want) {
			t.Errorf("p%d heard %v, want %v", id, m.heard, want)
		}
		if res[id].Err != nil || res[id].Sent != n-1 {
			t.Errorf("p%d: %d sends, error %v; want %d and none", id, res[id].Sent, res[id].Err, n-1)
		}
	}
}

// TestCommonDecision pins the fold of node results; a group member the
// cluster does not have is an error naming it, not an index panic.
func TestCommonDecision(t *testing.T) {
	results := func(decisions ...msg.Value) []transport.NodeResult {
		out := make([]transport.NodeResult, len(decisions))
		for i, d := range decisions {
			out[i] = transport.NodeResult{ID: proc.ID(i), Decision: d, Decided: d != "-"}
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		results []transport.NodeResult
		group   proc.Set
		want    msg.Value
		err     string
	}{
		{"agree", results("1", "1", "1"), proc.Universe(3), "1", ""},
		{"subgroup", results("0", "1", "1"), proc.NewSet(1, 2), "1", ""},
		{"empty", results("1"), proc.Set{}, "", "empty group"},
		{"undecided", results("1", "-"), proc.Universe(2), "", "p1 undecided"},
		{"dissent", results("1", "0"), proc.Universe(2), "", `p1 decided "0", others "1"`},
		{"outside", results("1", "1", "1", "1", "1"), proc.NewSet(9), "", "p9 is not a node of this cluster (n=5)"},
		{"one past", results("1", "1"), proc.Universe(3), "", "p2 is not a node of this cluster (n=2)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := transport.CommonDecision(tc.results, tc.group)
			switch {
			case tc.err == "" && (err != nil || d != tc.want):
				t.Errorf("CommonDecision = (%q, %v), want %q", d, err, tc.want)
			case tc.err != "" && (err == nil || err.Error() != tc.err):
				t.Errorf("CommonDecision error = %v, want %q", err, tc.err)
			}
		})
	}
	// The fold walks the group in place: a live slot calls it every time.
	agree, group := results("1", "1", "1"), proc.Universe(3)
	if a := testing.AllocsPerRun(10, func() { _, _ = transport.CommonDecision(agree, group) }); a != 0 {
		t.Errorf("an agreeing CommonDecision allocates %.0f times, want 0", a)
	}
}

func TestMemnetPhaseKing(t *testing.T) {
	n, tf := 5, 1
	mesh := memnet.New(n, nil)
	cluster := transport.Cluster{
		N:         n,
		Endpoints: mesh.Endpoints(),
		Factory:   phaseking.New(phaseking.Config{N: n, T: tf}),
		Proposals: []msg.Value{"0", "1", "1", "1", "0"},
		Rounds:    phaseking.RoundBound(tf),
	}
	results, err := cluster.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := transport.CommonDecision(results, proc.Universe(n)); err != nil {
		t.Fatalf("Agreement over memnet: %v", err)
	}
}

func TestMemnetFaultInjectionSplitsLeader(t *testing.T) {
	// Transport-level omission: drop the leader's payload toward p1. The
	// cheap leader protocol splits — the same counterexample shape the
	// falsifier builds, now on a live network.
	n := 5
	filter := func(from, to proc.ID, round int) bool { return from == 0 && to == 1 }
	mesh := memnet.New(n, filter)
	cluster := transport.Cluster{
		N:         n,
		Endpoints: mesh.Endpoints(),
		Factory:   cheap.Leader(n),
		Proposals: uniform(n, msg.Zero),
		Rounds:    cheap.LeaderRounds,
	}
	results, err := cluster.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if results[1].Decision != msg.One {
		t.Errorf("victim decided %q, want default 1", results[1].Decision)
	}
	if results[2].Decision != msg.Zero {
		t.Errorf("bystander decided %q, want 0", results[2].Decision)
	}
}

func TestMemnetAuthenticatedWeakConsensus(t *testing.T) {
	n, tf := 4, 1
	factory, rounds := weak.ViaIC(n, tf, sig.NewIdeal("memnet-ic"))
	mesh := memnet.New(n, nil)
	cluster := transport.Cluster{
		N:         n,
		Endpoints: mesh.Endpoints(),
		Factory:   factory,
		Proposals: uniform(n, msg.One),
		Rounds:    rounds,
	}
	results, err := cluster.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, err := transport.CommonDecision(results, proc.Universe(n))
	if err != nil || d != msg.One {
		t.Fatalf("decision %q err %v", d, err)
	}
}

func TestTCPNetPhaseKing(t *testing.T) {
	n, tf := 5, 1
	mesh, err := tcpnet.New(n)
	if err != nil {
		t.Fatalf("tcpnet: %v", err)
	}
	defer mesh.Close()
	cluster := transport.Cluster{
		N:         n,
		Endpoints: mesh.Endpoints(),
		Factory:   phaseking.New(phaseking.Config{N: n, T: tf}),
		Proposals: []msg.Value{"1", "0", "1", "0", "1"},
		Rounds:    phaseking.RoundBound(tf),
	}
	results, err := cluster.Run()
	if err != nil {
		t.Fatalf("Run over TCP: %v", err)
	}
	if _, err := transport.CommonDecision(results, proc.Universe(n)); err != nil {
		t.Fatalf("Agreement over TCP: %v", err)
	}
}

func TestTCPNetMatchesSimulatorDecision(t *testing.T) {
	// Determinism across substrates: the TCP run and the simulator run
	// decide identically from the same proposals.
	n, tf := 4, 1
	factory, rounds := weak.ViaEIG(n, tf)
	proposals := []msg.Value{"0", "0", "0", "0"}

	mesh, err := tcpnet.New(n)
	if err != nil {
		t.Fatalf("tcpnet: %v", err)
	}
	defer mesh.Close()
	cluster := transport.Cluster{N: n, Endpoints: mesh.Endpoints(), Factory: factory, Proposals: proposals, Rounds: rounds}
	results, err := cluster.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, err := transport.CommonDecision(results, proc.Universe(n))
	if err != nil {
		t.Fatal(err)
	}
	if d != msg.Zero {
		t.Errorf("TCP decision %q, want 0 (weak validity)", d)
	}
}

func TestClusterValidation(t *testing.T) {
	mesh := memnet.New(3, nil)
	bad := transport.Cluster{N: 3, Endpoints: mesh.Endpoints()[:2], Factory: cheap.Silent(), Proposals: uniform(3, "0"), Rounds: 1}
	if _, err := bad.Run(); err == nil {
		t.Error("expected endpoint-count error")
	}
	bad2 := transport.Cluster{N: 3, Endpoints: mesh.Endpoints(), Factory: cheap.Silent(), Proposals: uniform(3, "0"), Rounds: 0}
	if _, err := bad2.Run(); err == nil {
		t.Error("expected rounds error")
	}
}

// TestDialRetryLateListener starts the listener only after the first dial
// attempt has already failed: DialRetry must ride its backoff through the
// gap and connect.
func TestDialRetryLateListener(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close() // free the port; nothing is listening now

	ready := make(chan net.Listener, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			ready <- nil
			return
		}
		ready <- l2
	}()

	conn, err := transport.DialRetry(context.Background(), "tcp", addr, 10, 20*time.Millisecond)
	l2 := <-ready
	if l2 != nil {
		defer l2.Close()
	}
	if err != nil {
		t.Fatalf("DialRetry never connected to the late listener: %v", err)
	}
	conn.Close()
}

// TestDialRetryExhausted checks the bounded-attempts failure path.
func TestDialRetryExhausted(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	if _, err := transport.DialRetry(context.Background(), "tcp", addr, 2, time.Millisecond); err == nil {
		t.Fatal("DialRetry succeeded against a dead address")
	}
}

// TestDialRetryCancelled: cancelling the context ends a retry that is
// waiting out its backoff against a dead address — at once, not at the
// end of the wait, and not after the remaining attempts.
func TestDialRetryCancelled(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close()

	const backoff = 500 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	go func() {
		time.Sleep(20 * time.Millisecond) // the first dial has been refused; the retry is in its first wait
		cancelled = time.Now()
		cancel()
	}()
	_, err = transport.DialRetry(ctx, "tcp", addr, 10, backoff)
	late := time.Since(cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DialRetry under a cancelled context: %v, want an error wrapping context.Canceled", err)
	}
	if late >= backoff {
		t.Fatalf("DialRetry returned %v after cancel, want under one %v backoff step", late, backoff)
	}
}
