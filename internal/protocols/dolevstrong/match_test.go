package dolevstrong_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/sim"
)

// hostileValues need every branch of the string writer: verbatim,
// backslash-escaped, and handed to encoding/json.
var hostileValues = []msg.Value{"0", "1", "", "⊥", `"`, `a"b\c`, "<&>", "\n", "\xff"}

// hostileItem draws an item for a round-`round` inbox of process id. Most
// are acceptable — round signatures over the value, distinct signers,
// the sender first, id not among them — and the rest are broken in one of
// the ways Step must reject: a chain that is short or long, a repeated or
// out-of-range signer, a wrong first signer, a signature forged or over
// another value, or id's own name in the chain.
//
// The one thing it never does is what the model forbids (§5.1): produce a
// valid signature of id on a value id did not sign. id's name appears
// only over a forged signature — or validly when id is the sender, whose
// every chain is then rejected for carrying it. That is also the one
// input on which the reference differs: having accepted a chain for v it
// forwards the first valid chain for v in the inbox, which a forger of
// id's signature could make a different one.
func hostileItem(r *rand.Rand, cfg dolevstrong.Config, scheme sig.Scheme, round int, id proc.ID) dolevstrong.Item {
	v := hostileValues[r.Intn(len(hostileValues))]
	length := round
	switch r.Intn(10) {
	case 0:
		length--
	case 1:
		length++
	}
	signers := []int{int(cfg.Sender)}
	for _, j := range r.Perm(cfg.N) {
		if j != int(cfg.Sender) && j != int(id) {
			signers = append(signers, j)
		}
	}
	for len(signers) < length { // longer than the distinct IDs allow
		signers = append(signers, r.Intn(cfg.N))
	}
	signers = signers[:max(length, 0)]
	forgeAt := -1
	if len(signers) > 0 {
		at := r.Intn(len(signers))
		switch r.Intn(12) {
		case 0:
			signers[at] = signers[r.Intn(len(signers))]
		case 1:
			signers[at] = -1
		case 2:
			signers[at] = cfg.N
		case 3:
			signers[0] = (int(cfg.Sender) + 1) % cfg.N
		case 4:
			signers[at], forgeAt = int(id), at
		case 5:
			forgeAt = at
		}
	}
	it := dolevstrong.Item{V: v}
	for i, s := range signers {
		signed := v
		if i == forgeAt || (s == int(id) && id != cfg.Sender) {
			signed = v + "?" // a signature, but not over this value
		}
		g, err := scheme.Sign(proc.ID(s), dolevstrong.SignedData(cfg.Tag, signed))
		if err != nil {
			g = "00ff"
		}
		it.C = append(it.C, dolevstrong.Link{S: s, G: g})
	}
	return it
}

// hostileInbox is one round's inbox for process id: every other process
// sends a few hostile items — the same value more than once, more than
// two values — or bytes that are not a payload at all; extra, when
// non-empty, replaces one sender's payload.
func hostileInbox(r *rand.Rand, cfg dolevstrong.Config, scheme sig.Scheme, round int, id proc.ID, extra string) []msg.Message {
	var inbox []msg.Message
	replaced := proc.ID(r.Intn(cfg.N))
	for s := proc.ID(0); s < proc.ID(cfg.N); s++ {
		if s == id || r.Intn(4) == 0 {
			continue
		}
		var body string
		switch r.Intn(10) {
		case 0:
			body = []string{"", "{", `{"Items":null}`, `{"Items":[{}]}`, `{"Items":[{"V":"x","C":null}]}`, `{"Items":[{"V":1}]}`, `[]`}[r.Intn(7)]
		default:
			items := make([]dolevstrong.Item, r.Intn(4))
			for i := range items {
				items[i] = hostileItem(r, cfg, scheme, round, id)
			}
			body = msg.Encode(dolevstrong.Payload{Items: items})
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
func matchReference(t *testing.T, n, tf int, sender, id proc.ID, noRelay bool, seed int64, extra string) {
	t.Helper()
	scheme := sig.NewIdeal("match")
	cfg := dolevstrong.Config{N: n, T: tf, Sender: sender, Scheme: scheme, Tag: "ic/3", Default: "⊥", UnsafeNoRelay: noRelay}
	proposal := hostileValues[uint64(seed)%uint64(len(hostileValues))]
	ref, got := refNew(cfg)(id, proposal), dolevstrong.New(cfg)(id, proposal)
	compare := func(round int, want, have []sim.Outgoing) {
		t.Helper()
		if have = sim.Expand(nil, have, n, id); !slices.Equal(want, have) {
			t.Fatalf("n=%d t=%d sender=%d id=%d seed=%d round %d: sends\n%q\nreference sends\n%q", n, tf, sender, id, seed, round, have, want)
		}
		wd, wok := ref.Decision()
		hd, hok := got.Decision()
		if wd != hd || wok != hok || ref.Quiescent() != got.Quiescent() {
			t.Fatalf("n=%d t=%d sender=%d id=%d seed=%d round %d: decision %q/%t quiescent %t, reference %q/%t quiescent %t",
				n, tf, sender, id, seed, round, hd, hok, got.Quiescent(), wd, wok, ref.Quiescent())
		}
	}
	compare(0, ref.Init(), got.Init())
	r := rand.New(rand.NewSource(seed))
	for round := 1; round <= tf+2; round++ {
		inbox := hostileInbox(r, cfg, scheme, round, id, extra)
		compare(round, ref.Step(round, slices.Clone(inbox)), got.Step(round, inbox))
	}
}

func TestDolevStrongMatchesReference(t *testing.T) {
	for _, size := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {5, 3}, {8, 2}, {4, 0}} {
		n, tf := size[0], size[1]
		for seed := int64(0); seed < 200; seed++ {
			matchReference(t, n, tf, proc.ID(seed%int64(n)), proc.ID((seed/7)%int64(n)), seed%11 == 0, seed, "")
		}
	}
}

func FuzzDolevStrongMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(0), uint8(2), int64(1), `{"Items":[{"V":"1","C":[{"S":0,"G":"00"}]}]}`)
	f.Add(uint8(5), uint8(2), uint8(1), uint8(1), int64(9), `{"Items":[{"V":"\"","C":[{"S":1,"G":""},{"S":1,"G":"zz"}]},{"V":"⊥","C":[]}]}`)
	f.Fuzz(func(t *testing.T, n, tf, sender, id uint8, seed int64, extra string) {
		n = 2 + n%6
		matchReference(t, int(n), int(tf%n), proc.ID(sender%n), proc.ID(id%n), false, seed, extra)
	})
}

// TestInstanceAppendsToDst drives an Instance as the multiplexer does —
// every call appends to a buffer that already holds other bytes — beside
// the reference machine, over the inboxes TestDolevStrongMatchesReference
// draws. The bytes dst held stay as they were, the bytes appended after
// them are the reference's body, and silence hands back dst at its own
// length. Half the seeds lend a dst with no spare capacity, half one whose
// spare capacity holds junk.
func TestInstanceAppendsToDst(t *testing.T) {
	const prefix = `{"I":{"0":"held",` // what a bundle holds before the body
	for _, size := range [][2]int{{2, 1}, {4, 2}, {5, 3}, {8, 2}} {
		n, tf := size[0], size[1]
		for seed := int64(0); seed < 60; seed++ {
			sender, id := proc.ID(seed%int64(n)), proc.ID((seed/7)%int64(n))
			scheme := sig.NewIdeal("match")
			cfg := dolevstrong.Config{N: n, T: tf, Sender: sender, Scheme: scheme, Tag: "ic/3", Default: "⊥"}
			proposal := hostileValues[uint64(seed)%uint64(len(hostileValues))]
			ref, inst := refNew(cfg)(id, proposal), cfg.Instance(id, proposal)
			spare := 0
			if seed%2 == 1 {
				spare = 4096
			}
			call := func(round int, want []sim.Outgoing, body func(dst []byte) ([]byte, bool)) {
				t.Helper()
				dst := make([]byte, len(prefix)+spare)
				copy(dst, prefix)
				for i := len(prefix); i < len(dst); i++ {
					dst[i] = '#' // junk in the spare capacity
				}
				dst = dst[:len(prefix)]
				got, ok := body(dst)
				where := fmt.Sprintf("n=%d t=%d sender=%d id=%d seed=%d round %d", n, tf, sender, id, seed, round)
				switch {
				case string(dst) != prefix:
					t.Fatalf("%s: dst's bytes became %q", where, dst)
				case !strings.HasPrefix(string(got), prefix):
					t.Fatalf("%s: returned %q, which does not start with dst's bytes", where, got)
				case !ok && len(got) != len(dst):
					t.Fatalf("%s: silence returned %d bytes, dst held %d", where, len(got), len(dst))
				case !ok && len(want) > 0:
					t.Fatalf("%s: silent; the reference sends %q", where, want[0].Payload)
				case ok && len(want) == 0:
					t.Fatalf("%s: appended %q; the reference is silent", where, got[len(prefix):])
				case ok && string(got[len(prefix):]) != want[0].Payload:
					t.Fatalf("%s: appended\n%q\nthe reference sends\n%q", where, got[len(prefix):], want[0].Payload)
				}
			}
			call(0, ref.Init(), inst.InitBody)
			r := rand.New(rand.NewSource(seed))
			for round := 1; round <= tf+2; round++ {
				inbox := hostileInbox(r, cfg, scheme, round, id, "")
				call(round, ref.Step(round, slices.Clone(inbox)), func(dst []byte) ([]byte, bool) {
					return inst.StepBody(round, inbox, nil, dst)
				})
			}
		}
	}
}
