package mux_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/mux"
)

// reader is a silent broadcaster of a protocol whose decoded payload is a
// T: it reads every payload through its slot the way a product instance
// does (load, type-check, decode and store on a miss) and keeps what it
// read.
type reader[T any] struct {
	decode  func(string) T
	decodes *atomic.Int64
	read    []T
}

func (m *reader[T]) InitBody(dst []byte) ([]byte, bool) { return dst, false }

func (m *reader[T]) StepBody(_ int, received []msg.Message, slots []*msg.Slot, dst []byte) ([]byte, bool) {
	for i, rm := range received {
		v, ok := slots[i].Load().(T)
		if !ok {
			v = m.decode(rm.Payload)
			m.decodes.Add(1)
			slots[i].Store(v)
		}
		m.read = append(m.read, v)
	}
	return dst, false
}

func (m *reader[T]) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (m *reader[T]) Quiescent() bool             { return false }

// Two protocols' decoded forms of one payload.
type (
	shouted struct{ s string }
	counted struct{ n int }
)

func shout(p string) shouted { return shouted{strings.ToUpper(p)} }
func count(p string) counted { return counted{len(p)} }

// TestSlotsAreNotSharedAcrossProtocols feeds the same bundle bytes — so the
// same process-wide slots — to a multiplexer over one protocol and then to
// one over another: the second finds the first's decodings in its slots and
// must read its own.
func TestSlotsAreNotSharedAcrossProtocols(t *testing.T) {
	inbox := func() []msg.Message {
		return []msg.Message{
			{Sender: 1, Receiver: 0, Round: 1, Payload: `{"I":{"0":"across protocols","1":"b"}}`},
			{Sender: 2, Receiver: 0, Round: 1, Payload: `{"I":{"1":"across"}}`},
		}
	}
	var decodes atomic.Int64
	a := []*reader[shouted]{{decode: shout, decodes: &decodes}, {decode: shout, decodes: &decodes}}
	b := []*reader[counted]{{decode: count, decodes: &decodes}, {decode: count, decodes: &decodes}}
	mux.New([]mux.Broadcaster{a[0], a[1]}).Step(1, inbox())
	mux.New([]mux.Broadcaster{b[0], b[1]}).Step(1, inbox())
	if want := []shouted{{"ACROSS PROTOCOLS"}}; !slices.Equal(a[0].read, want) {
		t.Errorf("first protocol, instance 0 read %v, want %v", a[0].read, want)
	}
	if want := []shouted{{"B"}, {"ACROSS"}}; !slices.Equal(a[1].read, want) {
		t.Errorf("first protocol, instance 1 read %v, want %v", a[1].read, want)
	}
	if want := []counted{{16}}; !slices.Equal(b[0].read, want) {
		t.Errorf("second protocol, instance 0 read %v, want %v", b[0].read, want)
	}
	if want := []counted{{1}, {6}}; !slices.Equal(b[1].read, want) {
		t.Errorf("second protocol, instance 1 read %v, want %v", b[1].read, want)
	}
}

// broadcasts numbers the bodies TestBroadcastDecodedOnce builds: a body
// stays in the process-wide bundle cache with its slots filled, so a second
// invocation in the same process (-count=2) needs bytes of its own.
var broadcasts atomic.Int64

// TestBroadcastDecodedOnce gives one bundle body to n receivers, as a
// broadcast does: each inner payload is decoded by the first receiver's
// instance and read from its slot by the other n - 1.
func TestBroadcastDecodedOnce(t *testing.T) {
	const n, k = 6, 3
	payloads := []string{fmt.Sprintf("decoded once (%d)", broadcasts.Add(1)), "by the first", "receiver"}
	body := msg.Encode(map[string]any{"I": map[string]string{"0": payloads[0], "1": payloads[1], "2": payloads[2]}})
	var decodes atomic.Int64
	for r := 0; r < n; r++ {
		subs := make([]mux.Broadcaster, k)
		for i := range subs {
			subs[i] = &reader[shouted]{decode: shout, decodes: &decodes}
		}
		mux.New(subs).Step(1, []msg.Message{{Sender: n, Receiver: 0, Round: 1, Payload: body}})
		for i, s := range subs {
			if got, want := s.(*reader[shouted]).read, []shouted{shout(payloads[i])}; !slices.Equal(got, want) {
				t.Fatalf("receiver %d, instance %d read %v, want %v", r, i, got, want)
			}
		}
	}
	if got := decodes.Load(); got != k {
		t.Errorf("%d receivers of one bundle of %d payloads decoded %d times, want %d", n, k, got, k)
	}
}

// TestUnorderedInboxMatchesReference hands the reference and the product an
// outer inbox the engine would never build — senders out of order, one of
// them twice — which the harness in match_test.go cannot: the instances'
// inboxes are then not in message order and take the sorted path, where
// every slot is nil.
func TestUnorderedInboxMatchesReference(t *testing.T) {
	const round = 3 // scripted machines decide what they heard
	inbox := []msg.Message{
		{Sender: 3, Receiver: 0, Round: round, Payload: `{"I":{"0":"c","1":"c1"}}`},
		{Sender: 1, Receiver: 0, Round: round, Payload: `{"I":{"0":"a","00":"a'"}}`},
		{Sender: 2, Receiver: 0, Round: round, Payload: `{"I":{"1":"b"}}`},
		{Sender: 1, Receiver: 0, Round: round, Payload: `{"I":{"0":"a again","1":"a1"}}`},
	}
	subs := func() []mux.Broadcaster {
		return []mux.Broadcaster{
			&scripted{r: rand.New(rand.NewSource(1))},
			&scripted{r: rand.New(rand.NewSource(2))},
		}
	}
	// An earlier receiver of the same bodies, in order, has filled the slots.
	ordered := slices.Clone(inbox)
	for i := range ordered {
		ordered[i].Sender = proc.ID(i + 1)
	}
	mux.New(subs()).Step(round, ordered)
	ref, got := refOver(4, subs()), mux.New(subs())
	if want, have := ref.Step(round, slices.Clone(inbox)), got.Step(round, inbox); !slices.Equal(want, have) {
		t.Errorf("sends\n%q\nreference sends\n%q", have, want)
	}
	want, _ := ref.Decision()
	if have, ok := got.Decision(); !ok || have != want {
		t.Errorf("decision %q (%t), reference %q", have, ok, want)
	}
}
