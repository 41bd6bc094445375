package matrix

import (
	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog"
	"expensive/internal/msg"
	"expensive/internal/sim"
	"expensive/internal/smr"
	"expensive/internal/transport"
)

// TargetFor describes a cataloged protocol as a hunting target: the
// factory, round bound, validity property and n-shrinking rebuild hook all
// come from the spec. Build validation applies — hunting a protocol
// outside its resilience condition is a typed error, not a doomed
// campaign.
func TargetFor(s catalog.Spec, p catalog.Params) (adversary.Target, error) {
	factory, rounds, err := s.Build(p)
	if err != nil {
		return adversary.Target{}, err
	}
	return adversary.Target{
		Protocol:  s.ID,
		Factory:   factory,
		Rounds:    rounds,
		N:         p.N,
		T:         p.T,
		Validity:  s.ValidityFor(p),
		Agreement: s.Agreement,
		New:       s.Rebuilder(p),
	}, nil
}

// CampaignFor wires an adversarial hunt against a cataloged protocol
// (TargetFor), so callers pick a protocol and a strategy and nothing else.
func CampaignFor(s catalog.Spec, p catalog.Params, strategy adversary.Strategy, seeds adversary.SeedRange) (*adversary.Campaign, error) {
	target, err := TargetFor(s, p)
	if err != nil {
		return nil, err
	}
	return &adversary.Campaign{Target: target, Strategy: strategy, Seeds: seeds}, nil
}

// FuzzerFor wires a coverage-guided adaptive hunt against a cataloged
// protocol (TargetFor), so callers pick a protocol, a seed strategy and a
// probe budget and nothing else. Tune the returned fuzzer (Shrink, Corpus,
// StopOnViolation, Parallelism) before calling Run.
func FuzzerFor(s catalog.Spec, p catalog.Params, seed adversary.Strategy, budget int) (*fuzz.Fuzzer, error) {
	target, err := TargetFor(s, p)
	if err != nil {
		return nil, err
	}
	return &fuzz.Fuzzer{Target: target, Seed: seed, Budget: budget}, nil
}

// ShrinkOptionsFor derives the shrink/recheck configuration for
// violations found against a cataloged protocol.
func ShrinkOptionsFor(s catalog.Spec, p catalog.Params) (adversary.ShrinkOptions, error) {
	target, err := TargetFor(s, p)
	return adversary.ShrinkOptions{Target: target}, err
}

// LogFor builds a replicated log whose slots each run one instance of the
// cataloged protocol, constructed from the same validated parameters.
func LogFor(s catalog.Spec, p catalog.Params, noOp smr.Command) (*smr.Log, error) {
	factory, rounds, err := s.Build(p)
	if err != nil {
		return nil, err
	}
	protocol := func(int) (sim.Factory, int) { return factory, rounds }
	return smr.New(smr.Config{N: p.N, T: p.T, Protocol: protocol, NoOp: noOp})
}

// ClusterFor drives the cataloged protocol live over the given transport
// endpoints for its full round bound and returns per-node results.
func ClusterFor(s catalog.Spec, p catalog.Params, endpoints []transport.Endpoint, proposals []msg.Value) ([]transport.NodeResult, error) {
	factory, rounds, err := s.Build(p)
	if err != nil {
		return nil, err
	}
	c := transport.Cluster{N: p.N, Endpoints: endpoints, Factory: factory, Proposals: proposals, Rounds: rounds}
	return c.Run()
}
