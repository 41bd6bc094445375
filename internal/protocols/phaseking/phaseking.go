// Package phaseking implements the Phase-King strong consensus protocol in
// the two-round-per-phase form (Berman–Garay–Perry [20], as presented by
// Attiya–Welch [17]): binary strong consensus tolerating t Byzantine
// faults for n > 4t, deciding after t+1 phases (2(t+1) rounds), with
// polynomial message complexity Θ(n²·t).
//
// It is the library's unauthenticated polynomial baseline: a classical
// "matching protocol" whose measured message complexity sits a constant
// factor above the paper's t²/32 floor (experiment E9), and — because
// Strong Validity implies Weak Validity for binary values — also a sound
// weak consensus algorithm that the lower-bound falsifier cannot break
// (experiment E1).
//
// Each phase k has a designated king p_{k-1}. Round 2k-1: every process
// broadcasts its preference and computes the majority value and its
// multiplicity. Round 2k: the king broadcasts its majority value; a
// process keeps its own majority if its multiplicity exceeded n/2 + t,
// otherwise it adopts the king's value. With t+1 phases at least one king
// is correct, which establishes agreement; n > 4t makes an established
// agreement persist.
//
// Every broadcast returns the machine's one lent slice (sim.Broadcast).
package phaseking

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Config parameterizes the protocol.
type Config struct {
	N int
	T int
	// PhasesOverride replaces the default t+1 phase count. It exists as an
	// ablation hook: with only t phases an adversary corrupting the first t
	// kings splits the correct processes. Never set outside experiments.
	PhasesOverride int
}

// phases returns the number of phases to run.
func (c Config) phases() int {
	if c.PhasesOverride > 0 {
		return c.PhasesOverride
	}
	return c.T + 1
}

// Validate checks the resilience precondition n > 4t.
func (c Config) Validate() error {
	if c.N <= 4*c.T {
		return fmt.Errorf("phaseking: requires n > 4t, got n=%d t=%d", c.N, c.T)
	}
	return nil
}

// RoundBound returns the decision round: 2(t+1).
func RoundBound(t int) int { return 2 * (t + 1) }

// New returns the honest-machine factory. Proposals must be binary; any
// non-binary proposal is treated as 0, which keeps the machine total
// without affecting the binary agreement problems this protocol serves.
func New(cfg Config) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		pref := proposal
		if !msg.IsBit(pref) {
			pref = msg.Zero
		}
		return &machine{cfg: cfg, id: id, pref: pref}
	}
}

type payload struct {
	V msg.Value
}

// The honest protocol only ever exchanges the two binary payloads;
// pre-encoding them (and string-matching on decode) keeps the probe-loop
// hot path free of JSON work. Bytes are identical to msg.Encode output.
var (
	bodyZero = msg.Encode(payload{V: msg.Zero})
	bodyOne  = msg.Encode(payload{V: msg.One})
)

// decodeV parses a payload into a binary value; non-binary or malformed
// payloads (a Byzantine sender's) report ok=false.
func decodeV(body string) (msg.Value, bool) {
	switch body {
	case bodyZero:
		return msg.Zero, true
	case bodyOne:
		return msg.One, true
	}
	var p payload
	if err := msg.Decode(body, &p); err != nil || !msg.IsBit(p.V) {
		return msg.NoDecision, false
	}
	return p.V, true
}

type machine struct {
	sim.DecideOnce
	out sim.Broadcast

	cfg  Config
	id   proc.ID
	pref msg.Value

	maj  msg.Value
	mult int
}

var _ sim.Machine = (*machine)(nil)

func (m *machine) broadcast(v msg.Value) []sim.Outgoing {
	var body string
	switch v {
	case msg.Zero:
		body = bodyZero
	case msg.One:
		body = bodyOne
	default:
		body = msg.Encode(payload{V: v})
	}
	return m.out.Send(m.cfg.N, m.id, body)
}

// king returns the king of phase k (1-based): process k-1.
func king(k int) proc.ID { return proc.ID(k - 1) }

// phaseOf maps a round to (phase, isSecondRound).
func phaseOf(round int) (int, bool) {
	return (round + 1) / 2, round%2 == 0
}

// Init implements sim.Machine: round 1 is the first exchange of phase 1.
func (m *machine) Init() []sim.Outgoing {
	return m.broadcast(m.pref)
}

// Step implements sim.Machine.
func (m *machine) Step(round int, received []msg.Message) []sim.Outgoing {
	if m.Quiescent() {
		return nil
	}
	phase, second := phaseOf(round)

	if !second {
		// End of the exchange round: tally preferences (own included).
		// The preference and whatever decodeV accepts are bits, so two
		// counters hold the whole tally.
		zeros, ones := 0, 0
		if m.pref == msg.One {
			ones = 1
		} else {
			zeros = 1
		}
		for _, rm := range received {
			v, ok := decodeV(rm.Payload)
			if !ok {
				continue
			}
			if v == msg.One {
				ones++
			} else {
				zeros++
			}
		}
		if zeros >= ones {
			m.maj, m.mult = msg.Zero, zeros
		} else {
			m.maj, m.mult = msg.One, ones
		}
		if king(phase) == m.id {
			return m.broadcast(m.maj) // king round
		}
		return nil
	}

	// End of the king round: adopt.
	kingValue := m.maj // the king trusts its own tally
	if king(phase) != m.id {
		kingValue = msg.Zero // default when the king stays silent
		for _, rm := range received {
			if rm.Sender != king(phase) {
				continue
			}
			if v, ok := decodeV(rm.Payload); ok {
				kingValue = v
			}
		}
	}
	if 2*m.mult > m.cfg.N+2*m.cfg.T {
		m.pref = m.maj
	} else {
		m.pref = kingValue
	}

	if phase >= m.cfg.phases() {
		m.Decide(m.pref)
		return nil
	}
	return m.broadcast(m.pref) // next phase's exchange round
}
