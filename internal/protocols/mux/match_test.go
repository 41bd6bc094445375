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

// scripted is a deterministic broadcaster that says hostile things — the
// empty body among them — and folds every message it is given into what it
// says next and into its decision, so two multiplexers that hand their
// instances different inboxes diverge on the wire.
type scripted struct {
	r       *rand.Rand
	heard   []string
	decided bool
}

func (m *scripted) emit(dst []byte) ([]byte, bool) {
	tail := fmt.Sprintf("#%d", len(strings.Join(m.heard, "|")))
	if len(m.heard) > 0 {
		tail += m.heard[len(m.heard)-1]
	}
	if m.r.Intn(3) == 0 {
		tail = "" // bare payloads, the empty one among them
	}
	if m.r.Intn(3) == 0 {
		return dst, false
	}
	return append(dst, hostilePayloads[m.r.Intn(len(hostilePayloads))]+tail...), true
}

func (m *scripted) InitBody(dst []byte) ([]byte, bool) { return m.emit(dst) }

// StepBody reads every payload from its slot — filled with the payload
// itself by whichever scripted machine, of any multiplexer in the process,
// got there first — and folds what the slots said. A slot that is not the
// one for its message's payload shows on the wire as a divergence from the
// reference, which hands its instances empty slots.
func (m *scripted) StepBody(round int, received []msg.Message, slots []*msg.Slot, dst []byte) ([]byte, bool) {
	for i, rm := range received {
		p, ok := slots[i].Load().(string)
		if !ok {
			p = rm.Payload
			slots[i].Store(p)
		}
		m.heard = append(m.heard, fmt.Sprintf("%d:%d:%d:%s", rm.Round, rm.Sender, rm.Receiver, p))
	}
	m.decided = round >= 3
	return m.emit(dst)
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
// receivers, payloads, decisions and quiescence after every call. The
// product's Everyone entry is compared expanded per peer (sim.Expand).
func matchReference(t *testing.T, k, n int, seed int64, extra string) {
	t.Helper()
	subs := func() []mux.Broadcaster {
		out := make([]mux.Broadcaster, k)
		for i := range out {
			out[i] = &scripted{r: rand.New(rand.NewSource(seed*64 + int64(i)))}
		}
		return out
	}
	ref, got := refOver(n, subs()), mux.New(subs())
	compare := func(round int, want, have []sim.Outgoing) {
		t.Helper()
		if have = sim.Expand(nil, have, n, 0); !slices.Equal(want, have) {
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

// said is a broadcaster that says the same thing at every call.
type said struct {
	body string
	ok   bool
}

func (s said) InitBody(dst []byte) ([]byte, bool) { return s.say(dst) }
func (s said) StepBody(_ int, _ []msg.Message, _ []*msg.Slot, dst []byte) ([]byte, bool) {
	return s.say(dst)
}
func (said) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (said) Quiescent() bool             { return false }

func (s said) say(dst []byte) ([]byte, bool) {
	if !s.ok {
		return dst, false
	}
	return append(dst, s.body...), true
}

// TestUniformBroadcastMatchesReference holds the one bundle the multiplexer
// broadcasts to the reference, byte for byte, with every instance speaking,
// one silent, one saying the empty body (an empty inner payload, not
// silence) and none speaking, expanded per peer.
func TestUniformBroadcastMatchesReference(t *testing.T) {
	const n, k = 5, 12 // "10" and "11" sort before "2"
	onlyThird := func(third said) func(int, said) said {
		return func(i int, s said) said {
			if i == 3 {
				return third
			}
			return s
		}
	}
	for _, c := range []struct {
		name string
		edit func(instance int, s said) said
	}{
		{"all broadcast", nil},
		{"one silent", onlyThird(said{})},
		{"one says the empty body", onlyThird(said{ok: true})},
		{"all silent", func(int, said) said { return said{} }},
	} {
		subs := func() []mux.Broadcaster {
			out := make([]mux.Broadcaster, k)
			for i := range out {
				s := said{body: fmt.Sprintf("%s#%d", hostilePayloads[i%len(hostilePayloads)], i), ok: true}
				if c.edit != nil {
					s = c.edit(i, s)
				}
				out[i] = s
			}
			return out
		}
		ref, got := refOver(n, subs()), mux.New(subs())
		if want, have := ref.Init(), sim.Expand(nil, got.Init(), n, 0); !slices.Equal(want, have) {
			t.Errorf("%s: Init sends\n%q\nreference sends\n%q", c.name, have, want)
		}
		if want, have := ref.Step(1, nil), sim.Expand(nil, got.Step(1, nil), n, 0); !slices.Equal(want, have) {
			t.Errorf("%s: Step sends\n%q\nreference sends\n%q", c.name, have, want)
		}
	}
}

// broadcasting is the sim.Machine the reference drives a Broadcaster as:
// its body to every process but process 0, whose multiplexer it is, one
// entry per peer, and no slot ever filled.
type broadcasting struct {
	mux.Broadcaster
	n int
}

func (b *broadcasting) Init() []sim.Outgoing { return b.send(b.InitBody(nil)) }

func (b *broadcasting) Step(round int, received []msg.Message) []sim.Outgoing {
	return b.send(b.StepBody(round, received, make([]*msg.Slot, len(received)), nil))
}

func (b *broadcasting) send(body []byte, ok bool) []sim.Outgoing {
	if !ok {
		return nil
	}
	out := make([]sim.Outgoing, 0, b.n-1)
	for p := proc.ID(1); p < proc.ID(b.n); p++ {
		out = append(out, sim.Outgoing{To: p, Payload: string(body)})
	}
	return out
}

// refOver is process 0's reference multiplexer, of n processes, over subs.
func refOver(n int, subs []mux.Broadcaster) *Machine {
	machines := make([]sim.Machine, len(subs))
	for i, s := range subs {
		machines[i] = &broadcasting{Broadcaster: s, n: n}
	}
	return refNew(machines)
}

// TestRelayBundleGrowsOnce holds a fresh multiplexer's first bundle to the
// buffers an earlier one grew: its bodies are relay chains whose quotes
// and backslashes the bundle escapes, every tenth instance is silent and
// keys run to three digits. Init must allocate no more than for a bundle
// of one-letter bodies: the string alone, the broadcast entry living in
// the machine and the bundle and body buffers coming from the free list,
// where the warm-up call left them (a sync.Pool would lose a quarter of
// them under -race).
func TestRelayBundleGrowsOnce(t *testing.T) {
	const n, k, runs = 4, 120, 20
	initAllocs := func(body string) float64 {
		subs := make([]mux.Broadcaster, k)
		for i := range subs {
			subs[i] = said{body: body, ok: i%10 != 0}
		}
		fresh := make([]*mux.Machine, runs+1) // AllocsPerRun calls once more to warm up
		for i := range fresh {
			fresh[i] = mux.New(subs)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			fresh[next].Init()
			next++
		})
	}
	relay := `{"v":"1","chain":[{"id":"p0","sig":"9f2c"},{"id":"p3","sig":"a\\b"}]}`
	if got, want := initAllocs(relay), initAllocs("x"); got != want {
		t.Errorf("a fresh multiplexer's relay bundle costs %.0f allocations, a bundle of one-letter bodies %.0f", got, want)
	}
}
