package adversary

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// TestSubSeedKeepsItsValue holds the hand-rolled mixer to its definition,
// FNV-1a of "%d|%s": chaosnet rule seeds and Union/Biased child seeds are
// SubSeed values, and they did not move with StreamVersion 2.
func TestSubSeedKeepsItsValue(t *testing.T) {
	reference := func(seed int64, salt string) int64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", seed, salt)
		return int64(h.Sum64())
	}
	for _, seed := range []int64{0, 1, -1, 7, 1 << 20, math.MaxInt64, math.MinInt64} {
		for _, salt := range []string{"", "proposals", "random-omission(bias=40%)", "g12|s63", "chaosnet|flaky|budget", "ünïcode|\x00"} {
			if got, want := SubSeed(seed, salt), reference(seed, salt); got != want {
				t.Errorf("SubSeed(%d, %q) = %d, want %d", seed, salt, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { SubSeed(-42, "random-omission(bias=40%)") }); allocs != 0 {
		t.Errorf("SubSeed allocates %v times per call", allocs)
	}
}

// TestStreamDraws checks the stream's contract: a pure function of
// (seed, salt), Intn in range and roughly uniform, Int63 non-negative.
func TestStreamDraws(t *testing.T) {
	a, b := NewStream(3, "x"), NewStream(3, "x")
	other := NewStream(3, "y")
	same := true
	for i := 0; i < 64; i++ {
		va, vb := a.Int63(), b.Int63()
		if va != vb {
			t.Fatalf("draw %d: equal (seed, salt) diverged: %d vs %d", i, va, vb)
		}
		if va < 0 {
			t.Fatalf("draw %d: Int63 returned %d", i, va)
		}
		same = same && va == other.Int63()
	}
	if same {
		t.Error("streams of different salts drew the same 64 numbers")
	}

	const n, draws = 7, 70_000
	var hist [n]int
	r := NewStream(11, "uniform")
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d", n, v)
		}
		hist[v]++
	}
	for v, c := range hist {
		if math.Abs(float64(c)-draws/n) > 0.05*draws/n {
			t.Errorf("Intn(%d) drew %d %d times in %d, want ≈ %d", n, v, c, draws, draws/n)
		}
	}
}

// coinMessages enumerates 10⁵ distinct message identities.
func coinMessages(visit func(msg.Message)) {
	for s := 0; s < 50; s++ {
		for r := 0; r < 50; r++ {
			for round := 1; round <= 40; round++ {
				visit(msg.Message{Sender: proc.ID(s), Receiver: proc.ID(r), Round: round})
			}
		}
	}
}

// TestCoinProperties pins what the strategy library needs of the coin:
// a pure function of (seed, message identity) that ignores the payload,
// an unbiased rate, independence between the two seeds one plan draws
// (and between a machine's seed and seed+1), and the never/always bounds.
func TestCoinProperties(t *testing.T) {
	const bias, total = 40, 100_000
	r := NewStream(5, RandomOmission(bias).Name)
	sendSeed, recvSeed := r.Int63(), r.Int63() // as RandomOmission draws them

	var send, both, adjacent, adjacentBoth int
	coinMessages(func(m msg.Message) {
		s := coin(sendSeed, m, bias)
		withPayload := m
		withPayload.Payload = "x"
		if s != coin(sendSeed, m, bias) || s != coin(sendSeed, withPayload, bias) {
			t.Fatalf("coin(%v) is not a function of (seed, sender, receiver, round)", m)
		}
		if s {
			send++
			if coin(recvSeed, m, bias) {
				both++
			}
		}
		if coin(sendSeed+1, m, bias) {
			adjacent++
			if s {
				adjacentBoth++
			}
		}
		for _, never := range []int{0, -1, math.MinInt} {
			if coin(sendSeed, m, never) {
				t.Fatalf("coin at bias %d fired on %v", never, m)
			}
		}
		for _, always := range []int{100, 101, math.MaxInt} {
			if !coin(sendSeed, m, always) {
				t.Fatalf("coin at bias %d held on %v", always, m)
			}
		}
	})
	within := func(name string, count int, want float64) {
		t.Helper()
		if got := float64(count) / total; math.Abs(got-want) > 0.01 {
			t.Errorf("%s: rate %.4f over %d messages, want %.2f ± 0.01", name, got, total, want)
		}
	}
	within("send seed", send, 0.40)
	within("seed+1", adjacent, 0.40)
	within("send and receive seed together", both, 0.16)
	within("seed and seed+1 together", adjacentBoth, 0.16)
}

// TestLeanProbeAllocations is the ROADMAP's hot-path target as a count
// that repeats exactly instead of a clock reading: one lean FloodSet
// n = 8 t = 2 probe under random-omission(40) — build the plan, draw the
// proposals, run, check — allocates 17 times on the seeds below (28 while
// every machine's broadcast was a per-peer slice made on its first send,
// the engine made its machine table per run and the plan held two
// closures; 54 while FloodSet encoded every grown W afresh, held W in a
// slice of its own and the verdict listed the correct set's members; 56
// while every run built proc.Universe(n) to hold the faulty set against).
// One more allocation per probe is allowed; one per machine is not. The
// race detector's sync.Pool drops scratch at random and raises the mean,
// so the test holds the lowest of that mean and 20 single probes, which
// read 17 either way.
func TestLeanProbeAllocations(t *testing.T) {
	env := testEnv(8, 2)
	c := &Campaign{Target: Target{Factory: env.Factory, Rounds: env.Rounds, N: env.N, T: env.T, Validity: validity.AdmissibleCheck(validity.Weak(env.N, env.T))}, Strategy: RandomOmission(40)}
	seed := int64(0)
	probe := func() {
		seed++
		plan := c.Strategy.Build(seed, env)
		proposals := c.proposalsFor(seed, env)
		cfg := sim.Config{N: c.N, T: c.T, Proposals: proposals, MaxRounds: env.Horizon, Recording: sim.RecordDecisions}
		e, err := sim.Run(cfg, c.Factory, plan)
		if err != nil {
			t.Fatal(err)
		}
		CheckExecution(e, proposals, c.Validity, c.Agreement)
	}
	allocs := testing.AllocsPerRun(200, probe)
	for i := 0; i < 20; i++ {
		allocs = min(allocs, testing.AllocsPerRun(1, probe))
	}
	t.Logf("%.0f allocations per lean probe", allocs)
	if allocs >= 19 {
		t.Errorf("lean probe allocates %.0f times, want < 19", allocs)
	}
}
