package mux_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/mux"
	"expensive/internal/sim"
)

// hostilePayloads need every branch of the string writer — verbatim,
// backslash-escaped, handed to encoding/json — and nest: an inner payload
// is itself JSON.
var hostilePayloads = []string{
	"", "0", `{"P":[{"L":[0,3],"V":"1"}]}`, `{"I":{"0":"{\"V\":\"a\\\"b\"}"}}`,
	`"`, `\`, "⊥", "<&>", "\n", "\xff",
}

// scripted is a deterministic sub-machine that says hostile things — to
// receivers in any order, twice to one, outside 0..n-1 — and folds every
// message it is given into what it says next and into its decision, so two
// multiplexers that hand their instances different inboxes diverge on the
// wire.
type scripted struct {
	r       *rand.Rand
	n       int
	heard   []string
	decided bool
}

func (m *scripted) emit() []sim.Outgoing {
	tail := fmt.Sprintf("#%d", len(strings.Join(m.heard, "|")))
	if len(m.heard) > 0 {
		tail += m.heard[len(m.heard)-1]
	}
	if m.r.Intn(3) == 0 {
		tail = "" // bare payloads, the empty one among them
	}
	var out []sim.Outgoing
	switch m.r.Intn(5) {
	case 0: // silent
	case 1, 2: // an honest broadcast
		body := hostilePayloads[m.r.Intn(len(hostilePayloads))] + tail
		for p := 1; p < m.n; p++ {
			out = append(out, sim.Outgoing{To: proc.ID(p), Payload: body})
		}
	default:
		for i := m.r.Intn(2 * m.n); i > 0; i-- {
			to := proc.ID(m.r.Intn(m.n+3) - 1)
			out = append(out, sim.Outgoing{To: to, Payload: hostilePayloads[m.r.Intn(len(hostilePayloads))] + tail})
		}
	}
	return out
}

func (m *scripted) Init() []sim.Outgoing { return m.emit() }

func (m *scripted) Step(round int, received []msg.Message) []sim.Outgoing {
	for _, rm := range received {
		m.heard = append(m.heard, fmt.Sprintf("%d:%d:%d:%s", rm.Round, rm.Sender, rm.Receiver, rm.Payload))
	}
	m.decided = round >= 3
	return m.emit()
}

// StepSlots makes scripted a sub-machine the product multiplexer hands
// slots (the reference only knows Step): every payload is read from its
// slot — filled with the payload itself by whichever scripted machine, of
// any multiplexer in the process, got there first — and what the slots
// said is what Step folds. A slot that is not the one for its message's
// payload shows on the wire as a divergence from the reference.
func (m *scripted) StepSlots(round int, received []msg.Message, slots []*msg.Slot) []sim.Outgoing {
	read := make([]msg.Message, len(received))
	for i, rm := range received {
		p, ok := slots[i].Load().(string)
		if !ok {
			p = rm.Payload
			slots[i].Store(p)
		}
		rm.Payload = p
		read[i] = rm
	}
	return m.Step(round, read)
}

func (m *scripted) Decision() (msg.Value, bool) {
	if !m.decided {
		return msg.NoDecision, false
	}
	return msg.Value(strings.Join(m.heard, "|")), true
}

func (m *scripted) Quiescent() bool { return m.decided }

// hostileKeys are bundle keys Step must route or drop exactly as the
// reference does: colliding spellings of one instance, signs, blanks,
// non-numbers, instances that do not exist.
var hostileKeys = []string{"00", "+0", "-0", "01", "-1", "", " 1", "a", "1e0", "0x1", "99", "1000000000000000000000"}

// hostileInbox is one round of bundles for process 0 of n, k instances.
func hostileInbox(r *rand.Rand, k, n, round int, extra string) []msg.Message {
	var inbox []msg.Message
	replaced := proc.ID(1 + r.Intn(n-1))
	for s := proc.ID(1); s < proc.ID(n); s++ {
		var body string
		switch r.Intn(8) {
		case 0:
			body = []string{"", "{{{not json", `{"I":null}`, `{"I":{"0":1}}`, `{"I":{"0":"a","0":"b"}}`, `{"J":{}}`, `[]`}[r.Intn(7)]
		default:
			bundle := map[string]string{}
			for i := r.Intn(k + 3); i > 0; i-- {
				key := fmt.Sprint(r.Intn(k + 1))
				if r.Intn(4) == 0 {
					key = hostileKeys[r.Intn(len(hostileKeys))]
				}
				bundle[key] = hostilePayloads[r.Intn(len(hostilePayloads))]
			}
			body = msg.Encode(map[string]any{"I": bundle})
		}
		if s == replaced && extra != "" {
			body = extra
		}
		inbox = append(inbox, msg.Message{Sender: s, Receiver: 0, Round: round, Payload: body})
	}
	return inbox
}

// matchReference drives the reference multiplexer and the product
// multiplexer, over identically scripted sub-machines, through Init and
// four rounds of identical hostile bundles, and requires identical
// receivers, payloads, decisions and quiescence after every call.
func matchReference(t *testing.T, k, n int, seed int64, extra string) {
	t.Helper()
	subs := func() []sim.Machine {
		out := make([]sim.Machine, k)
		for i := range out {
			out[i] = &scripted{r: rand.New(rand.NewSource(seed*64 + int64(i))), n: n}
		}
		return out
	}
	ref, got := refNew(subs(), mux.VectorCombiner), mux.New(subs(), mux.VectorCombiner)
	compare := func(round int, want, have []sim.Outgoing) {
		t.Helper()
		if !slices.Equal(want, have) {
			t.Fatalf("k=%d n=%d seed=%d round %d: sends\n%q\nreference sends\n%q", k, n, seed, round, have, want)
		}
		wd, wok := ref.Decision()
		hd, hok := got.Decision()
		if wd != hd || wok != hok || ref.Quiescent() != got.Quiescent() {
			t.Fatalf("k=%d n=%d seed=%d round %d: decision %q/%t quiescent %t, reference %q/%t quiescent %t",
				k, n, seed, round, hd, hok, got.Quiescent(), wd, wok, ref.Quiescent())
		}
	}
	compare(0, ref.Init(), got.Init())
	r := rand.New(rand.NewSource(seed))
	for round := 1; round <= 4; round++ {
		inbox := hostileInbox(r, k, n, round, extra)
		compare(round, ref.Step(round, slices.Clone(inbox)), got.Step(round, inbox))
	}
}

func TestMuxMatchesReference(t *testing.T) {
	// 12 instances: "10" and "11" sort before "2".
	for _, k := range []int{0, 1, 2, 5, 12} {
		for seed := int64(0); seed < 150; seed++ {
			matchReference(t, k, 2+int(seed%5), seed, "")
		}
	}
}

func FuzzMuxMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(3), int64(1), `{"I":{"0":"one","00":"two"}}`)
	f.Add(uint8(12), uint8(4), int64(5), `{"I":{"10":"a","2":"b","+1":"\"","x":"y"}}`)
	f.Fuzz(func(t *testing.T, k, n uint8, seed int64, extra string) {
		matchReference(t, int(k%13), 2+int(n%6), seed, extra)
	})
}
