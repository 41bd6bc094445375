package floodset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// hostileBodies are what a faulty or foreign sender may put on the wire:
// the three bit-set bodies, written out here rather than taken from the
// package; the same sets spelt so that the string match misses and the
// decoder must run; values that are not bits; and bytes that are not a
// payload at all.
var hostileBodies = []string{
	`{"W":["0"]}`, `{"W":["1"]}`, `{"W":["0","1"]}`,
	`{"W": ["0"]}`, ` {"W":["1"]} `, `{"W":[ "0" , "1" ]}`, `{"W":["1","0"]}`, `{"W":["0","0"]}`,
	`{"W":["2"]}`, `{"W":[""]}`, `{"W":["⊥","0"]}`, `{"W":["a\"b","<"]}`, `{"W":["-1","1"]}`,
	`{"W":[]}`, `{"W":null}`, `{}`, `{"W":["0"],"X":1}`, `null`,
	``, `{`, `[]`, `{"W":[1]}`, `{"W":"0"}`, `{"W":["0"]`, `{"W":["0",]}`, "\xff",
}

// hostileInbox is one round's inbox for process id. Most senders say one
// of the three bit sets, the rest draw from hostileBodies or echo own, the
// body id itself sent last; some stay silent, and some appear twice with
// two payloads (the engine never delivers that, a foreign driver might).
// extra, when non-empty, replaces one sender's payload.
func hostileInbox(r *rand.Rand, n, round int, id proc.ID, own, extra string) []msg.Message {
	body := func() string {
		switch r.Intn(6) {
		case 0:
			return own
		case 1, 2:
			return hostileBodies[r.Intn(len(hostileBodies))]
		}
		return hostileBodies[r.Intn(3)]
	}
	var inbox []msg.Message
	replaced := proc.ID(r.Intn(n))
	for s := proc.ID(0); s < proc.ID(n); s++ {
		if s == id || r.Intn(5) == 0 {
			continue
		}
		m := msg.Message{Sender: s, Receiver: id, Round: round, Payload: body()}
		if s == replaced && extra != "" {
			m.Payload = extra
		}
		inbox = append(inbox, m)
		if r.Intn(6) == 0 {
			m.Payload = body()
			inbox = append(inbox, m)
		}
	}
	return inbox
}

// matchReference drives the reference machine and the product machine of
// one process through Init and every round up to two past the decision
// round on identical hostile inboxes, and requires identical outgoing
// messages, decisions and quiescence after every call. The product's
// slice is compared, its Everyone entry expanded per peer, before the next
// Step, which is all it is lent for.
func matchReference(t *testing.T, cfg Config, early bool, id proc.ID, seed int64, extra string) {
	t.Helper()
	proposal := []msg.Value{msg.Zero, msg.One, "2", "", "<é>"}[uint64(seed)%5]
	ref, got := refNew(cfg)(id, proposal), New(cfg)(id, proposal)
	if early {
		ref, got = refNewEarlyStopping(cfg)(id, proposal), NewEarlyStopping(cfg)(id, proposal)
	}
	own := ""
	compare := func(round int, want, have []sim.Outgoing) {
		t.Helper()
		if expanded := sim.Expand(nil, have, cfg.N, id); (want == nil) != (have == nil) || !slices.Equal(want, expanded) {
			t.Fatalf("%+v early=%t id=%d seed=%d round %d: sends\n%q\nreference sends\n%q", cfg, early, id, seed, round, expanded, want)
		}
		wd, wok := ref.Decision()
		hd, hok := got.Decision()
		if wd != hd || wok != hok || ref.Quiescent() != got.Quiescent() {
			t.Fatalf("%+v early=%t id=%d seed=%d round %d: decision %q/%t quiescent %t, reference %q/%t quiescent %t",
				cfg, early, id, seed, round, hd, hok, got.Quiescent(), wd, wok, ref.Quiescent())
		}
		if len(want) > 0 {
			own = want[0].Payload
		}
	}
	compare(0, ref.Init(), got.Init())
	r := rand.New(rand.NewSource(seed))
	for round := 1; round <= RoundBound(cfg.T)+2; round++ {
		inbox := hostileInbox(r, cfg.N, round, id, own, extra)
		compare(round, ref.Step(round, slices.Clone(inbox)), got.Step(round, inbox))
	}
}

func TestFloodSetMatchesReference(t *testing.T) {
	for _, cfg := range []Config{{N: 2, T: 0}, {N: 4, T: 1}, {N: 6, T: 2}, {N: 8, T: 2}, {N: 9, T: 5}} {
		for _, early := range []bool{false, true} {
			for seed := int64(0); seed < 200; seed++ {
				matchReference(t, cfg, early, proc.ID(seed%int64(cfg.N)), seed, "")
			}
		}
	}
}

func FuzzFloodSetMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(0), false, int64(1), `{"W":["1"]}`)
	f.Add(uint8(8), uint8(2), uint8(3), true, int64(9), `{"W":["0","2"]}`)
	f.Fuzz(func(t *testing.T, n, tf, id uint8, early bool, seed int64, extra string) {
		n = 2 + n%12
		cfg := Config{N: int(n), T: int(tf % n)}
		matchReference(t, cfg, early, proc.ID(id%n), seed, extra)
	})
}

// TestEngineRunsMatchReference runs whole executions of both variants
// under the engine, fault-free and under random send and receive
// omission, at both recording tiers: the product machines, set up in
// place, must yield exactly the executions the reference machines do.
func TestEngineRunsMatchReference(t *testing.T) {
	cfg := Config{N: 8, T: 2}
	horizon := sim.Horizon(RoundBound(cfg.T))
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		proposals := make([]msg.Value, cfg.N)
		for i := range proposals {
			proposals[i] = []msg.Value{msg.Zero, msg.One, "2"}[r.Intn(3)]
		}
		var plan sim.FaultPlan = sim.NoFaults{}
		if seed%4 != 0 {
			faulty := proc.NewSet(proc.ID(r.Intn(cfg.N)), proc.ID(r.Intn(cfg.N)))
			drop := func(m msg.Message) bool { return (m.Round*31+int(m.Sender)*7+int(m.Receiver)+int(seed))%3 == 0 }
			plan = sim.OmissionPlan{F: faulty, SendFn: drop, ReceiveFn: drop}
		}
		for _, rec := range []sim.Recording{sim.RecordFull, sim.RecordDecisions} {
			run := func(f sim.Factory) *sim.Execution {
				e, err := sim.Run(sim.Config{N: cfg.N, T: cfg.T, Proposals: proposals, MaxRounds: horizon, Recording: rec}, f, plan)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			if !reflect.DeepEqual(run(New(cfg)), run(refNew(cfg))) {
				t.Errorf("seed %d at %s: New's execution differs from the reference's", seed, rec)
			}
			if !reflect.DeepEqual(run(NewEarlyStopping(cfg)), run(refNewEarlyStopping(cfg))) {
				t.Errorf("seed %d at %s: NewEarlyStopping's execution differs from the reference's", seed, rec)
			}
		}
	}
}
