// Package ic implements interactive consistency [18, 54, 78]: every
// process proposes a value and all correct processes decide the same
// vector of n values such that the entry of every correct process is its
// actual proposal (IC-Validity). §5.2 of the paper makes IC the universal
// substrate: any non-trivial agreement problem satisfying the containment
// condition reduces to IC plus a computable selector Γ (Algorithm 2).
//
// The authenticated construction runs n parallel Dolev-Strong broadcast
// instances — one per process — multiplexed over the one-message-per-peer
// channel model, and therefore tolerates any t < n (Dolev-Strong [52]).
// The unauthenticated construction lives in package eig and requires
// n > 3t [55, 78].
package ic

import (
	"strconv"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/dolevstrong"
	"expensive/internal/protocols/mux"
	"expensive/internal/sim"
)

// Config parameterizes authenticated interactive consistency.
type Config struct {
	N      int
	T      int
	Scheme sig.Scheme
	// Default fills vector entries of silent or equivocating processes.
	Default msg.Value
}

// RoundBound returns the decision round: t+1 (all broadcast instances run
// in parallel).
func RoundBound(t int) int { return dolevstrong.RoundBound(t) }

// New returns the honest-machine factory: n multiplexed Dolev-Strong
// instances, instance j broadcast by process j; the decision is the
// canonical encoding of the vector of instance decisions.
func New(cfg Config) sim.Factory {
	instances := make([]dolevstrong.Config, cfg.N)
	for j := range instances {
		instances[j] = dolevstrong.Config{
			N:       cfg.N,
			T:       cfg.T,
			Sender:  proc.ID(j),
			Scheme:  cfg.Scheme,
			Tag:     "ic/" + strconv.Itoa(j),
			Default: cfg.Default,
		}
	}
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		// One allocation holds the process's n instances.
		subs, states := make([]mux.Broadcaster, len(instances)), make([]dolevstrong.Instance, len(instances))
		for j, instance := range instances {
			states[j] = instance.Instance(id, proposal)
			subs[j] = &states[j]
		}
		return mux.New(subs)
	}
}
