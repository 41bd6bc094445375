package transport_test

import (
	"fmt"
	"reflect"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/transport"
)

// referenceRunNode is the round barrier as it was written before RunNode
// kept its working state for the run: a payload map and a frame map made
// every round, an inbox grown from nil and then sorted. RunNode must
// behave exactly like it on every frame sequence.
func referenceRunNode(ep transport.Endpoint, n int, id proc.ID, machine sim.Machine, rounds int) transport.NodeResult {
	res := transport.NodeResult{ID: id}
	out := machine.Init()
	future := make(map[int]map[int]transport.Frame)
	for r := 1; r <= rounds; r++ {
		payloads := make(map[proc.ID]string)
		for _, o := range sim.Expand(nil, out, n, id) {
			payloads[o.To] = o.Payload
		}
		for p := proc.ID(0); p < proc.ID(n); p++ {
			if p == id {
				continue
			}
			f := transport.Frame{From: int(id), To: int(p), Round: r}
			if body, ok := payloads[p]; ok {
				f.Has, f.Payload = true, body
				res.Sent++
			}
			if err := ep.Send(p, f); err != nil {
				res.Err = fmt.Errorf("%s round %d: send to %s: %w", id, r, p, err)
				return res
			}
		}

		frames := future[r]
		if frames == nil {
			frames = make(map[int]transport.Frame, n-1)
		}
		delete(future, r)
		for len(frames) < n-1 {
			f, err := ep.Recv()
			if err != nil {
				res.Err = fmt.Errorf("%s round %d: recv: %w", id, r, err)
				return res
			}
			if f.Round < r || f.Round > rounds || f.From == int(id) || f.From < 0 || f.From >= n {
				continue
			}
			if f.Round == r {
				if _, dup := frames[f.From]; !dup {
					frames[f.From] = f
				}
				continue
			}
			ahead := future[f.Round]
			if ahead == nil {
				ahead = make(map[int]transport.Frame, n-1)
				future[f.Round] = ahead
			}
			if _, dup := ahead[f.From]; !dup {
				ahead[f.From] = f
			}
		}

		var received []msg.Message
		for p := 0; p < n; p++ {
			f, ok := frames[p]
			if !ok || !f.Has {
				continue
			}
			received = append(received, msg.Message{Sender: proc.ID(f.From), Receiver: id, Round: r, Payload: f.Payload})
		}
		msg.Sort(received)
		out = machine.Step(r, received)
	}
	if v, ok := machine.Decision(); ok {
		res.Decision, res.Decided = v, true
	}
	return res
}

// recorder copies every inbox it is lent and sends what its script byte
// for the round says: bit 7 is an entry to sim.Everyone, bit k < 7 an
// entry to process k − 1, so the script also reaches -1, p_n and beyond,
// the node itself and a peer twice.
type recorder struct {
	script  []byte
	out     []sim.Outgoing
	inboxes [][]msg.Message
}

func (m *recorder) send(r int) []sim.Outgoing {
	m.out = m.out[:0]
	if len(m.script) == 0 {
		return nil
	}
	b := m.script[(r-1)%len(m.script)]
	if b&0x80 != 0 {
		m.out = append(m.out, sim.Outgoing{To: sim.Everyone, Payload: fmt.Sprintf("all%d", r)})
	}
	for k := 0; k < 7; k++ {
		if b&(1<<k) != 0 {
			m.out = append(m.out, sim.Outgoing{To: proc.ID(k - 1), Payload: fmt.Sprintf("%d>%d", r, k-1)})
		}
	}
	return m.out
}

func (m *recorder) Init() []sim.Outgoing { return m.send(1) }

func (m *recorder) Step(r int, received []msg.Message) []sim.Outgoing {
	m.inboxes = append(m.inboxes, append([]msg.Message(nil), received...))
	return m.send(r + 1)
}

func (m *recorder) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (m *recorder) Quiescent() bool             { return false }

// FuzzRunNodeMatchesReference holds RunNode to referenceRunNode on
// arbitrary frame sequences. Each three bytes of frames are one frame:
// its sender (-1 … n), its round (-1 … rounds+1: stale, current, ahead
// and past the horizon), and whether it has a payload and which; repeated
// (sender, round) pairs are duplicates. With tail set, every peer's frame
// for every round follows, so the run completes; without it the script
// may end first and both must fail with the same error. Both must send
// the same frames, lend their machines the same inboxes round by round
// and report the same Sent.
func FuzzRunNodeMatchesReference(f *testing.F) {
	// In order: p0 of three hears p1 and p2 in round 1, then in round 2.
	f.Add(uint8(1), uint8(0), uint8(1), false, []byte{0x80}, []byte{2, 2, 0x80, 3, 2, 0x81, 2, 3, 0x82, 3, 3, 0x83})
	// Reordered: p1 of four hears round 2 first, then a frame past the
	// horizon, then round 1.
	f.Add(uint8(2), uint8(1), uint8(1), false, []byte{0x81, 0x0f}, []byte{1, 3, 0x80, 3, 3, 0, 4, 3, 0x84, 4, 4, 0x85, 1, 2, 0x86, 3, 2, 0x87, 4, 2, 0})
	// Duplicated: p1 of two hears p0 twice in round 2, twice in round 1,
	// then once in round 0.
	f.Add(uint8(0), uint8(1), uint8(1), false, []byte{0x7f}, []byte{1, 3, 0x82, 1, 3, 0x83, 1, 2, 0x80, 1, 2, 0x81, 1, 1, 0x84})
	f.Fuzz(func(t *testing.T, size, self, horizon uint8, tail bool, script, frames []byte) {
		n := 2 + int(size%4)
		id := proc.ID(int(self) % n)
		rounds := 1 + int(horizon%4)
		var in []transport.Frame
		for i := 0; i+2 < len(frames); i += 3 {
			fr := transport.Frame{From: int(frames[i])%(n+2) - 1, To: int(id), Round: int(frames[i+1])%(rounds+3) - 1}
			if frames[i+2]&0x80 != 0 {
				fr.Has, fr.Payload = true, string(rune('a'+frames[i+2]%26))
			}
			in = append(in, fr)
		}
		if tail {
			for r := 1; r <= rounds; r++ {
				for p := 0; p < n; p++ {
					if p != int(id) {
						in = append(in, transport.Frame{From: p, To: int(id), Round: r, Has: (p+r)%2 == 0, Payload: "t"})
					}
				}
			}
		}

		type run struct {
			res     transport.NodeResult
			sent    []transport.Frame
			inboxes [][]msg.Message
		}
		drive := func(node func(transport.Endpoint, int, proc.ID, sim.Machine, int) transport.NodeResult) run {
			ep := &scripted{frames: in}
			m := &recorder{script: script}
			return run{node(ep, n, id, m, rounds), ep.sent, m.inboxes}
		}
		got, want := drive(transport.RunNode), drive(referenceRunNode)
		if fmt.Sprint(got.res.Err) != fmt.Sprint(want.res.Err) {
			t.Fatalf("error %v, reference %v", got.res.Err, want.res.Err)
		}
		if got.res.Sent != want.res.Sent {
			t.Fatalf("sent %d payloads, reference %d", got.res.Sent, want.res.Sent)
		}
		if !reflect.DeepEqual(got.sent, want.sent) {
			t.Fatalf("frames sent %v, reference %v", got.sent, want.sent)
		}
		if !reflect.DeepEqual(got.inboxes, want.inboxes) {
			t.Fatalf("inboxes %v, reference %v", got.inboxes, want.inboxes)
		}
	})
}

// TestRunNodeInboxInSenderOrder feeds p2 of five its round's frames in
// the order p4, p0, p3, p1: the inbox must list them by sender, which
// with the round and the receiver fixed is msg.Key.Compare order.
func TestRunNodeInboxInSenderOrder(t *testing.T) {
	ep := &scripted{}
	for _, p := range []int{4, 0, 3, 1} {
		ep.frames = append(ep.frames, transport.Frame{From: p, To: 2, Round: 1, Has: true, Payload: fmt.Sprint(p)})
	}
	m := &recorder{}
	if res := transport.RunNode(ep, 5, 2, m, 1); res.Err != nil {
		t.Fatal(res.Err)
	}
	var want []msg.Message
	for _, p := range []proc.ID{0, 1, 3, 4} {
		want = append(want, msg.Message{Sender: p, Receiver: 2, Round: 1, Payload: fmt.Sprint(int(p))})
	}
	if len(m.inboxes) != 1 || !reflect.DeepEqual(m.inboxes[0], want) {
		t.Fatalf("inboxes %v, want [%v]", m.inboxes, want)
	}
	sorted := append([]msg.Message(nil), m.inboxes[0]...)
	if msg.Sort(sorted); !reflect.DeepEqual(sorted, m.inboxes[0]) {
		t.Fatalf("inbox %v is not in Key.Compare order", m.inboxes[0])
	}
}

// chatter broadcasts one constant body every round and ignores what it
// hears, allocating nothing.
type chatter struct{ out sim.Broadcast }

func (m *chatter) Init() []sim.Outgoing                   { return m.out.Send("x") }
func (m *chatter) Step(int, []msg.Message) []sim.Outgoing { return m.out.Send("x") }
func (m *chatter) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (m *chatter) Quiescent() bool                        { return false }

// TestRunNodeAllocationsFlatInRounds runs p0 of three, broadcasting
// every round, over a script that holds both peers' frames for 32
// rounds: RunNode keeps its inbox and frame tables for the run, so a
// 32-round run allocates exactly as often as a one-round run.
func TestRunNodeAllocationsFlatInRounds(t *testing.T) {
	const most = 32
	ep := &scripted{}
	for r := 1; r <= most; r++ {
		for p := 1; p <= 2; p++ {
			ep.frames = append(ep.frames, transport.Frame{From: p, To: 0, Round: r, Has: true, Payload: "y"})
		}
	}
	m := &chatter{}
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			ep.rewind()
			if res := transport.RunNode(ep, 3, 0, m, rounds); res.Err != nil || res.Sent != 2*rounds {
				t.Fatalf("%d rounds: %d sends, error %v", rounds, res.Sent, res.Err)
			}
		})
	}
	if one, many := allocs(1), allocs(most); many != one {
		t.Errorf("RunNode allocates %.0f times over %d rounds, %.0f over one", many, most, one)
	}
}
