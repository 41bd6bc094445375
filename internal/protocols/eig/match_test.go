package eig_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/eig"
	"expensive/internal/sim"
)

// hostileValues need every branch of the string writer: verbatim,
// backslash-escaped, and handed to encoding/json.
var hostileValues = []msg.Value{"0", "1", "", "⊥", `"`, `\`, `a"b\c`, "<&>", "\n", "\xff", msg.NoDecision}

// hostileLabel draws a label for a round-`round` relay that is usually
// well-formed (length round-1, distinct, in range, without the sender) and
// otherwise broken in one of the ways Step must reject: an element that is
// negative or >= n, a repeat, the sender itself, the wrong length.
func hostileLabel(r *rand.Rand, n, round int, sender proc.ID) []int {
	length := round - 1
	switch r.Intn(8) {
	case 0:
		length = r.Intn(round + 2)
	case 1:
		length++
	}
	label := make([]int, 0, length)
	for _, j := range r.Perm(n) {
		if len(label) < length && j != int(sender) {
			label = append(label, j)
		}
	}
	for len(label) < length { // longer than n-1 distinct IDs allow
		label = append(label, r.Intn(n))
	}
	if len(label) > 0 {
		at := r.Intn(len(label))
		switch r.Intn(8) {
		case 0:
			label[at] = -1 - r.Intn(2)
		case 1:
			label[at] = n + r.Intn(2)
		case 2:
			label[at] = label[r.Intn(len(label))]
		case 3:
			label[at] = int(sender)
		}
	}
	return label
}

// hostileInbox is one round's inbox for process id: every other process
// sends a payload of hostile pairs — first write must win among repeats —
// or bytes that are not a payload at all; extra, when non-empty, replaces
// one sender's payload.
func hostileInbox(r *rand.Rand, n, round int, id proc.ID, extra string) []msg.Message {
	var inbox []msg.Message
	replaced := proc.ID(r.Intn(n))
	for s := proc.ID(0); s < proc.ID(n); s++ {
		if s == id || r.Intn(6) == 0 {
			continue
		}
		var body string
		switch r.Intn(10) {
		case 0:
			body = []string{"", "{", `{"P":null}`, `{"P":[{"L":null,"V":"x"}]}`, `{"P":[{"L":[0.5],"V":"x"}]}`, `{"P":[{"L":["a"]}]}`, `{"P":[{}]}`, `[]`}[r.Intn(8)]
		default:
			pairs := make([]pair, r.Intn(2*n))
			for i := range pairs {
				pairs[i] = pair{L: hostileLabel(r, n, round, s), V: hostileValues[r.Intn(len(hostileValues))]}
			}
			body = msg.Encode(payload{P: pairs})
		}
		if s == replaced && extra != "" {
			body = extra
		}
		inbox = append(inbox, msg.Message{Sender: s, Receiver: id, Round: round, Payload: body})
	}
	return inbox
}

// matchReference drives the reference machine and the product machine of
// one process through Init and rounds 1..t+2 on identical hostile inboxes
// and requires identical receivers, payloads, decisions and quiescence
// after every call, the product's Everyone entry expanded per peer.
func matchReference(t *testing.T, n, tf int, id proc.ID, def msg.Value, seed int64, extra string) {
	t.Helper()
	cfg := eig.Config{N: n, T: tf, Default: def}
	proposal := hostileValues[uint64(seed)%uint64(len(hostileValues))]
	ref, got := refNew(cfg)(id, proposal), eig.New(cfg)(id, proposal)
	compare := func(round int, want, have []sim.Outgoing) {
		t.Helper()
		if have = sim.Expand(nil, have, n, id); !slices.Equal(want, have) {
			t.Fatalf("n=%d t=%d id=%d seed=%d round %d: sends\n%v\nreference sends\n%v", n, tf, id, seed, round, have, want)
		}
		wd, wok := ref.Decision()
		hd, hok := got.Decision()
		if wd != hd || wok != hok || ref.Quiescent() != got.Quiescent() {
			t.Fatalf("n=%d t=%d id=%d seed=%d round %d: decision %q/%t quiescent %t, reference %q/%t quiescent %t",
				n, tf, id, seed, round, hd, hok, got.Quiescent(), wd, wok, ref.Quiescent())
		}
	}
	compare(0, ref.Init(), got.Init())
	r := rand.New(rand.NewSource(seed))
	for round := 1; round <= tf+2; round++ {
		inbox := hostileInbox(r, n, round, id, extra)
		compare(round, ref.Step(round, slices.Clone(inbox)), got.Step(round, inbox))
	}
}

func TestEIGMatchesReference(t *testing.T) {
	for _, size := range [][2]int{{2, 0}, {3, 1}, {4, 1}, {5, 1}, {7, 2}, {8, 2}, {3, 2}, {2, 3}} {
		n, tf := size[0], size[1]
		for seed := int64(0); seed < 200; seed++ {
			matchReference(t, n, tf, proc.ID(seed%int64(n)), hostileValues[(seed/3)%4], seed, "")
		}
	}
}

func FuzzEIGMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(0), int64(1), `{"P":[{"L":[],"V":"1"}]}`)
	f.Add(uint8(5), uint8(2), uint8(3), int64(7), `{"P":[{"L":[0,3],"V":"⊥"},{"L":[3,0],"V":"\""}]}`)
	f.Fuzz(func(t *testing.T, n, tf, id uint8, seed int64, extra string) {
		n, tf = 2+n%5, tf%3 // trees up to 6 + 30 + 120 nodes
		matchReference(t, int(n), int(tf), proc.ID(id%n), "⊥", seed, extra)
	})
}

// TestFactorySharedAcrossGoroutines runs one factory — one shape — from 8
// goroutines at once; with -race it is the check that the shape is only
// read once built, and that no buffer is shared between machines.
func TestFactorySharedAcrossGoroutines(t *testing.T) {
	const n, tf = 7, 2
	factory := eig.New(eig.Config{N: n, T: tf, Default: "⊥"})
	proposals := []msg.Value{"a", "b", "c", "d", "e", "f", "g"}
	cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: eig.RoundBound(tf) + 1}
	want, err := sim.Run(cfg, refNew(eig.Config{N: n, T: tf, Default: "⊥"}), sim.NoFaults{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				e, err := sim.Run(cfg, factory, sim.NoFaults{})
				if err != nil {
					t.Error(err)
					return
				}
				for id := proc.ID(0); id < n; id++ {
					if !slices.Equal(e.Behavior(id).AllSent(), want.Behavior(id).AllSent()) {
						t.Errorf("process %d sent a different trace than the reference", id)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestNoBufferSharedBetweenMachines holds a slice one machine returned
// across the Init and Step of another machine of the same factory (the
// two-faced adversary does exactly this with its two copies).
func TestNoBufferSharedBetweenMachines(t *testing.T) {
	factory := eig.New(eig.Config{N: 4, T: 1, Default: "⊥"})
	a, b := factory(0, "a"), factory(0, "b")
	held := a.Init()
	want := slices.Clone(held)
	b.Init()
	b.Step(1, []msg.Message{{Sender: 1, Receiver: 0, Round: 1, Payload: `{"P":[{"L":[],"V":"x"}]}`}})
	if !slices.Equal(held, want) {
		t.Fatalf("machine a's broadcast changed under machine b's calls:\n%v\nwas\n%v", held, want)
	}
}
