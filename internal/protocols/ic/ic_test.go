package ic_test

import (
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/protocols/ic"
	"expensive/internal/protocols/mux"
	"expensive/internal/sim"
)

func runIC(t *testing.T, n, tf int, proposals []msg.Value, plan sim.FaultPlan) *sim.Execution {
	t.Helper()
	scheme := sig.NewIdeal("ic-test")
	cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: ic.RoundBound(tf) + 2}
	e, err := sim.Run(cfg, ic.New(ic.Config{N: n, T: tf, Scheme: scheme, Default: "⊥"}), plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

func TestICValidityFaultFree(t *testing.T) {
	proposals := []msg.Value{"a", "b", "c", "d"}
	e := runIC(t, 4, 1, proposals, sim.NoFaults{})
	d, err := e.CommonDecision(proc.Universe(4))
	if err != nil {
		t.Fatalf("CommonDecision: %v", err)
	}
	vec, err := msg.DecodeVector(d)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, v := range vec {
		if v != proposals[i] {
			t.Errorf("vec[%d] = %q, want %q (IC-Validity)", i, v, proposals[i])
		}
	}
	if err := omission.Validate(e); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}

// silent never sends.
type silent struct{}

func (silent) Init() []sim.Outgoing                   { return nil }
func (silent) Step(int, []msg.Message) []sim.Outgoing { return nil }
func (silent) Decision() (msg.Value, bool)            { return msg.NoDecision, false }
func (silent) Quiescent() bool                        { return true }

func TestICWithSilentByzantine(t *testing.T) {
	proposals := []msg.Value{"a", "b", "c", "d", "e"}
	plan := sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{2: silent{}}}
	e := runIC(t, 5, 1, proposals, plan)
	d, err := e.CommonDecision(proc.NewSet(0, 1, 3, 4))
	if err != nil {
		t.Fatalf("Agreement violated: %v", err)
	}
	vec, err := msg.DecodeVector(d)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Correct entries survive; the silent process's slot is the default.
	for _, i := range []int{0, 1, 3, 4} {
		if vec[i] != proposals[i] {
			t.Errorf("vec[%d] = %q, want %q", i, vec[i], proposals[i])
		}
	}
	if vec[2] != "⊥" {
		t.Errorf("vec[2] = %q, want default", vec[2])
	}
}

func TestICDecidesWithinBound(t *testing.T) {
	e := runIC(t, 4, 2, []msg.Value{"a", "b", "c", "d"}, sim.NoFaults{})
	if e.Rounds > ic.RoundBound(2)+1 {
		t.Errorf("decided after %d rounds, bound %d", e.Rounds, ic.RoundBound(2))
	}
}

// TestFactorySharedAcrossGoroutines runs one factory — its n broadcast
// instance factories and one signature scheme — from 8 goroutines at once;
// with -race it is the check that machines share nothing they write.
func TestFactorySharedAcrossGoroutines(t *testing.T) {
	proposals := []msg.Value{"a", "b", "c", "d", "e"}
	factory := ic.New(ic.Config{N: 5, T: 2, Scheme: sig.NewIdeal("ic-test"), Default: "⊥"})
	cfg := sim.Config{N: 5, T: 2, Proposals: proposals, MaxRounds: ic.RoundBound(2) + 1}
	want := runIC(t, 5, 2, proposals, sim.NoFaults{})
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
				for id := proc.ID(0); id < 5; id++ {
					if !slices.Equal(e.Behavior(id).AllSent(), want.Behavior(id).AllSent()) {
						t.Errorf("process %d sent a different trace than a run of its own factory", id)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestNoBufferSharedBetweenMachines holds a slice one machine returned
// across the Init and Step of another machine of the same factory (the
// two-faced adversary does exactly this with its two copies): neither the
// multiplexer nor the broadcast instances under it may share a buffer
// between machines.
func TestNoBufferSharedBetweenMachines(t *testing.T) {
	factory := ic.New(ic.Config{N: 4, T: 1, Scheme: sig.NewIdeal("ic-test"), Default: "⊥"})
	a, b, peer := factory(0, "a"), factory(0, "b"), factory(1, "c")
	held := a.Init()
	want := slices.Clone(held)
	b.Init()
	var inbox []msg.Message
	for _, o := range sim.Expand(nil, peer.Init(), 4, 1) {
		if o.To == 0 {
			inbox = append(inbox, msg.Message{Sender: 1, Receiver: 0, Round: 1, Payload: o.Payload})
		}
	}
	if out := b.Step(1, inbox); len(out) == 0 {
		t.Fatal("machine b relayed nothing: the test no longer exercises its buffers")
	}
	if !slices.Equal(held, want) {
		t.Fatalf("machine a's broadcast changed under machine b's calls:\n%q\nwas\n%q", held, want)
	}
}

// scribbler is a broadcast instance that hands back its inbox, and the
// slots that came with it, overwritten the moment it has stepped: what the
// multiplexer lends for a StepBody, the next instance finds gone.
type scribbler struct{ mux.Broadcaster }

func (s scribbler) StepBody(round int, received []msg.Message, slots []*msg.Slot, dst []byte) ([]byte, bool) {
	defer func() {
		for i := range received {
			received[i] = msg.Message{Sender: -1, Receiver: -1, Round: -1, Payload: "scribbled"}
		}
	}()
	defer clear(slots)
	return s.Broadcaster.StepBody(round, received, slots, dst)
}

// TestInboxIsOnlyLent runs interactive consistency over broadcast
// instances wrapped in scribblers — fault-free and past a silent process —
// and wants the trace of the unwrapped run: an instance keeps nothing of
// its inbox past Step, which is what lets the multiplexer lend all n of
// them the same one.
func TestInboxIsOnlyLent(t *testing.T) {
	const n, tf = 5, 2
	proposals := []msg.Value{"a", "b", "c", "d", "e"}
	scheme := sig.NewIdeal("ic-test")
	scribbled := func(id proc.ID, proposal msg.Value) sim.Machine {
		subs := make([]mux.Broadcaster, n)
		for j := range subs {
			instance := dolevstrong.Config{
				N: n, T: tf, Sender: proc.ID(j), Scheme: scheme, Tag: "ic/" + strconv.Itoa(j), Default: "⊥",
			}.Instance(id, proposal)
			subs[j] = scribbler{&instance}
		}
		return mux.New(subs)
	}
	cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: ic.RoundBound(tf) + 2}
	for name, plan := range map[string]func() sim.FaultPlan{
		"fault-free": func() sim.FaultPlan { return sim.NoFaults{} },
		"silent":     func() sim.FaultPlan { return sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{2: silent{}}} },
	} {
		want, err := sim.Run(cfg, ic.New(ic.Config{N: n, T: tf, Scheme: scheme, Default: "⊥"}), plan())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := sim.Run(cfg, scribbled, plan())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := want.Trace(); err != nil || !reflect.DeepEqual(got.Behaviors, want.Behaviors) {
			t.Errorf("%s: instances that lose their inbox after Step leave a different full trace (%v)", name, err)
		}
	}
}
