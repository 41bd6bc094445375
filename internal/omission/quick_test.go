package omission

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// TestEngineAlwaysProducesValidExecutions is the central soundness
// property: for random omission plans (random faulty sets, random drop
// patterns) the engine's trace always satisfies the five Appendix A.1.6
// guarantees and conforms to the machines that generated it.
func TestEngineAlwaysProducesValidExecutions(t *testing.T) {
	factory := echoFactory(tn, 3)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var faulty proc.Set
		for faulty.Len() < 1+r.Intn(tt) {
			faulty = faulty.Add(proc.ID(r.Intn(tn)))
		}
		sendSeed, recvSeed := r.Int63(), r.Int63()
		plan := sim.OmissionPlan{
			F:         faulty,
			SendFn:    func(m msg.Message) bool { return pseudo(sendSeed, m) },
			ReceiveFn: func(m msg.Message) bool { return pseudo(recvSeed, m) },
		}
		props := make([]msg.Value, tn)
		for i := range props {
			props[i] = msg.Bit(r.Intn(2))
		}
		e, err := sim.Run(sim.Config{N: tn, T: tt, Proposals: props, MaxRounds: 8}, factory, plan)
		if err != nil {
			return false
		}
		if Validate(e) != nil {
			return false
		}
		return sim.Conforms(e, factory, proc.Set{}) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// pseudo derives a deterministic boolean from (seed, message identity).
func pseudo(seed int64, m msg.Message) bool {
	x := seed ^ int64(m.Sender)<<17 ^ int64(m.Receiver)<<7 ^ int64(m.Round)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x&3 == 0
}

// TestSwapIdentityWithoutOmissions: swapping a process that never
// receive-omitted anything changes nothing except (possibly) shrinking the
// faulty set to the processes that actually misbehave.
func TestSwapIdentityWithoutOmissions(t *testing.T) {
	e := trace(t, runFull(t, msg.Zero))
	e.Faulty = proc.NewSet(3) // nominally corrupted, but committed no fault
	swapped, err := SwapOmission(e, 3)
	if err != nil {
		t.Fatalf("SwapOmission: %v", err)
	}
	if !swapped.Faulty.Empty() {
		t.Errorf("faulty after identity swap = %v, want empty", swapped.Faulty)
	}
	for i := range e.Behaviors {
		a, b := e.Behaviors[i], swapped.Behaviors[i]
		if !reflect.DeepEqual(a.Fragments, b.Fragments) {
			t.Errorf("behavior of p%d changed under identity swap", i)
		}
	}
}

// TestSwapPreservesMessageMultiset: the swap moves messages between Sent
// and SendOmitted but never creates or destroys any.
func TestSwapPreservesMessageMultiset(t *testing.T) {
	group := proc.NewSet(6, 7)
	prop := func(pick uint8) bool {
		e, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, group, 1+int(pick%3), 8)
		if err != nil {
			return false
		}
		victim := group.Members()[int(pick)%group.Len()]
		swapped, err := SwapOmission(e, victim)
		if err != nil {
			return false
		}
		for i := range e.Behaviors {
			before := len(e.Behaviors[i].AllSent()) + len(e.Behaviors[i].AllSendOmitted())
			after := len(swapped.Behaviors[i].AllSent()) + len(swapped.Behaviors[i].AllSendOmitted())
			if before != after {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMergeDeterminism: merging the same pair twice yields identical
// executions — required for the falsifier's replayability.
func TestMergeDeterminism(t *testing.T) {
	part, err := proc.NewPartition(tn, tt)
	if err != nil {
		t.Fatal(err)
	}
	eB, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, part.B, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	eC, err := RunIsolated(tn, tt, echoFactory(tn, 3), msg.Zero, part.C, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := MergeSpec{Part: part, EB: eB, KB: 2, EC: eC, KC: 3}
	m1, err := Merge(spec, echoFactory(tn, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Merge(spec, echoFactory(tn, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Behaviors, m2.Behaviors) {
		t.Error("merge is not deterministic")
	}
}
