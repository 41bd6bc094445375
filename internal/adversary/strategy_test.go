package adversary

import (
	"reflect"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/floodset"
	"expensive/internal/sim"
)

// testEnv builds a small FloodSet probe environment.
func testEnv(n, t int) Env {
	rounds := floodset.RoundBound(t)
	return Env{
		N: n, T: t, Rounds: rounds, Horizon: rounds + 2,
		Factory: floodset.New(floodset.Config{N: n, T: t}),
	}
}

func bits(pattern ...int) []msg.Value {
	out := make([]msg.Value, len(pattern))
	for i, b := range pattern {
		out[i] = msg.Bit(b)
	}
	return out
}

// allStrategies is the full library, combinators included.
func allStrategies() []Strategy {
	return []Strategy{
		RandomSendOmission(40),
		RandomReceiveOmission(40),
		RandomOmission(40),
		SilentCrash(),
		TargetedWithhold(),
		SenderIsolation(),
		Chaos(),
		Equivocate(),
		TwoFaced(),
		Union(RandomOmission(40), Chaos()),
		Windowed(RandomOmission(80), 2, 3),
		Biased(RandomOmission(80), 50),
	}
}

// TestStrategyDeterminism replays every strategy from the same seed twice
// and demands identical executions — the contract every campaign and
// every shrink step relies on.
func TestStrategyDeterminism(t *testing.T) {
	env := testEnv(6, 2)
	proposals := bits(0, 1, 0, 1, 1, 0)
	for _, s := range allStrategies() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			var execs [2]*sim.Execution
			for i := range execs {
				plan := s.Build(7, env)
				cfg := sim.Config{N: env.N, T: env.T, Proposals: proposals, MaxRounds: env.Horizon}
				e, err := sim.Run(cfg, env.Factory, plan)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				execs[i] = e
			}
			if !reflect.DeepEqual(execs[0], execs[1]) {
				t.Fatalf("strategy %s is not seed-deterministic", s.Name)
			}
		})
	}
}

// TestStrategiesRespectFaultBudget runs every strategy over many seeds
// and checks no plan ever corrupts more than t processes.
func TestStrategiesRespectFaultBudget(t *testing.T) {
	for _, tf := range []int{1, 2, 3} {
		env := testEnv(7, tf)
		for _, s := range allStrategies() {
			for seed := int64(0); seed < 25; seed++ {
				f := s.Build(seed, env).Faulty()
				if f.Len() > tf {
					t.Fatalf("%s seed %d corrupts %d > t=%d processes", s.Name, seed, f.Len(), tf)
				}
				if !f.SubsetOf(proc.Universe(env.N)) {
					t.Fatalf("%s seed %d corrupts outside Π: %v", s.Name, seed, f)
				}
			}
		}
	}
}

// TestStrategiesOmitOnlyForCorrupted asks every strategy's plans about
// every (round, sender, receiver) and demands they never claim an omission
// by a process outside Faulty(). The engine no longer asks such questions
// (sim.FaultPlan), so a strategy that answered true to one would run as a
// weaker adversary than it meant to be and nothing else would say so.
func TestStrategiesOmitOnlyForCorrupted(t *testing.T) {
	env := testEnv(7, 2)
	for _, s := range allStrategies() {
		for seed := int64(0); seed < 25; seed++ {
			plan := s.Build(seed, env)
			f := plan.Faulty()
			for r := 1; r <= env.Horizon; r++ {
				for i := 0; i < env.N; i++ {
					for j := 0; j < env.N; j++ {
						if i == j {
							continue
						}
						m := msg.Message{Sender: proc.ID(i), Receiver: proc.ID(j), Round: r, Payload: "x"}
						if !f.Contains(m.Sender) && plan.SendOmit(m) {
							t.Fatalf("%s seed %d: send-omits %v, whose sender is outside F=%v", s.Name, seed, m, f)
						}
						if !f.Contains(m.Receiver) && plan.ReceiveOmit(m) {
							t.Fatalf("%s seed %d: receive-omits %v, whose receiver is outside F=%v", s.Name, seed, m, f)
						}
					}
				}
			}
		}
	}
}

// TestWindowedGatesRounds verifies the round-window combinator: every
// omission in the trace lands inside the window.
func TestWindowedGatesRounds(t *testing.T) {
	env := testEnv(6, 2)
	s := Windowed(RandomOmission(90), 2, 3)
	for seed := int64(0); seed < 20; seed++ {
		plan := s.Build(seed, env)
		cfg := sim.Config{N: env.N, T: env.T, Proposals: bits(0, 1, 0, 1, 1, 0), MaxRounds: env.Horizon}
		e, err := sim.Run(cfg, env.Factory, plan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, b := range e.Behaviors {
			for _, m := range append(b.AllSendOmitted(), b.AllReceiveOmitted()...) {
				if m.Round < 2 || m.Round > 3 {
					t.Fatalf("seed %d: omission %v outside window [2,3]", seed, m)
				}
			}
		}
	}
}

// TestBiasedAttenuates verifies the biased combinator commits a subset of
// the inner strategy's omissions.
func TestBiasedAttenuates(t *testing.T) {
	env := testEnv(6, 2)
	inner := RandomOmission(90)
	outer := Biased(inner, 40)
	for seed := int64(0); seed < 10; seed++ {
		pi := inner.Build(seed, env)
		po := outer.Build(seed, env)
		if !pi.Faulty().Equal(po.Faulty()) {
			t.Fatalf("seed %d: biased changed the corrupted set", seed)
		}
		for round := 1; round <= env.Horizon; round++ {
			for s := 0; s < env.N; s++ {
				for r := 0; r < env.N; r++ {
					if s == r {
						continue
					}
					m := msg.Message{Sender: proc.ID(s), Receiver: proc.ID(r), Round: round}
					if po.SendOmit(m) && !pi.SendOmit(m) {
						t.Fatalf("seed %d: biased send-omits %v the inner plan does not", seed, m)
					}
					if po.ReceiveOmit(m) && !pi.ReceiveOmit(m) {
						t.Fatalf("seed %d: biased receive-omits %v the inner plan does not", seed, m)
					}
				}
			}
		}
	}
}

// TestUnionCombinesFaults checks Union plans unite both sides' corruption
// while staying inside the shared budget (covered above) and or-ing the
// omissions.
func TestUnionCombinesFaults(t *testing.T) {
	env := testEnv(7, 3)
	u := Union(RandomSendOmission(80), Chaos())
	sawOmission, sawByzantine := false, false
	for seed := int64(0); seed < 30; seed++ {
		plan := u.Build(seed, env)
		for _, id := range plan.Faulty().Members() {
			if plan.Byzantine(id) != nil {
				sawByzantine = true
			} else {
				sawOmission = true
			}
		}
	}
	if !sawOmission || !sawByzantine {
		t.Fatalf("union never produced both fault classes (omission=%v byzantine=%v)", sawOmission, sawByzantine)
	}
}

// TestUnionWithTargetedRespectsBudget pins the t=1 regression: Union hands
// one side a zero budget, and TargetedWithhold must yield to it.
func TestUnionWithTargetedRespectsBudget(t *testing.T) {
	env := testEnv(6, 1)
	u := Union(SilentCrash(), TargetedWithhold())
	for seed := int64(0); seed < 20; seed++ {
		if f := u.Build(seed, env).Faulty(); f.Len() > 1 {
			t.Fatalf("seed %d: union corrupts %d > t=1 processes (%v)", seed, f.Len(), f)
		}
	}
}
