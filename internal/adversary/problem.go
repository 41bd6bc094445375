package adversary

import "expensive/internal/msg"

// DomainProposals returns the seed-deterministic proposal generator that
// draws every process's input uniformly from the given domain — the
// generator problem-derived hunts use (see solve.HuntCampaign).
func DomainProposals(inputs []msg.Value) func(seed int64, env Env) []msg.Value {
	return func(seed int64, env Env) []msg.Value {
		r := NewStream(seed, "problem-proposals")
		out := make([]msg.Value, env.N)
		for i := range out {
			out[i] = inputs[r.Intn(len(inputs))]
		}
		return out
	}
}
