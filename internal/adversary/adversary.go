// Package adversary is the reusable attack layer of the library: a
// library of composable, seed-deterministic fault-plan strategies, a
// parallel campaign engine that hunts protocol violations over seed
// ranges, and a counterexample shrinker that minimizes whatever the hunt
// finds into a small, machine-checkable fault plan.
//
// The paper's whole argument runs on adversarial executions — hand-built
// omission and Byzantine fault plans that make protocols fail or pay the
// Ω(t²) price. Before this package the repo could express them in exactly
// two bespoke ways: the Theorem 2 falsifier (internal/lowerbound) and the
// ad-hoc randomness of the stress tests. This package generalizes both
// into a subsystem every layer can use:
//
//   - Strategy (strategy.go, machines.go, stream.go) — a named, seed-deterministic
//     generator of sim.FaultPlan values. The library covers random and
//     targeted send/receive omission, silent crashes, Definition 1 style
//     group isolation, and Byzantine machines (chaos, equivocation,
//     two-faced honest twins), plus combinators: Union splits the fault
//     budget between two strategies, Windowed gates omissions to a round
//     interval, Biased attenuates them per message. Everything a strategy
//     does derives from its explicit seed — through splitmix64 sub-streams
//     keyed by SubSeed and an integer per-message coin, a mapping named by
//     StreamVersion — so every discovered failure replays bit-for-bit.
//
//   - Target (target.go) — the protocol under test, declared once and
//     embedded by Campaign, fuzz.Fuzzer and ShrinkOptions, and the one
//     evidence pipeline: Replay runs a plan at the full trace tier, holds
//     the trace to the five Appendix A.1.6 execution guarantees, the fault
//     budget and honest-machine conformance, and reads the verdict off
//     the validated trace; Probe runs lean and sends only a violating
//     probe through it. No other code in the hunting stack validates a
//     trace.
//
//   - Campaign (campaign.go, problem.go) — fans a seed range out over the
//     experiment engine's worker pool (internal/experiments/runner). Each
//     probe builds the strategy's plan for its seed, runs it through
//     Target.Probe and checks Termination, Agreement, and a pluggable
//     validity property. The CampaignReport is JSON-serializable and
//     byte-identical at every parallelism level: probes are computed
//     concurrently but aggregated strictly in seed order, and wall-clock
//     statistics stay out of the encoding.
//
//   - Shrink (plan.go, shrink.go) — minimizes a found violation in the
//     delta-debugging style: the fault plan exercised by the violating
//     trace is first materialized as an ExplicitPlan (exact omitted
//     message identities plus, per Byzantine process, the MachineSpec its
//     machine carries and is rebuilt from), then greedily reduced — fewer
//     corrupted processes, fewer omitted messages, and, when the protocol
//     is available at smaller sizes, a smaller n — every candidate
//     through Target.Replay. Recheck
//     independently re-validates the final certificate from scratch; it
//     is also the recheck of every Theorem 2 falsifier certificate.
//
// The falsifier proves one theorem's construction; campaigns search the
// whole space around it. Both end the same way: a minimal execution a
// machine can check.
package adversary
