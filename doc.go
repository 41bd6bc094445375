// Package expensive is an executable reproduction of "All Byzantine
// Agreement Problems are Expensive" (Civit, Gilbert, Guerraoui, Komatovic,
// Paramonov, Vidigueira; PODC 2024, arXiv:2311.08060).
//
// The paper proves that every non-trivial Byzantine agreement problem
// requires Ω(t²) exchanged messages in the worst case, even in synchrony
// and even against mere omission faults, and characterizes exactly which
// agreement problems are solvable at all (the containment condition).
// This library turns each of those results into running code:
//
//   - A deterministic synchronous simulator recording the full Appendix-A
//     trace model (fragments, behaviors, executions) with Byzantine and
//     omission adversaries. See RunProtocol.
//   - The lower-bound machinery of §3 — isolation, swap_omission, merge —
//     packaged as a falsifier: hand it any weak consensus protocol and it
//     either constructs a machine-checked counterexample execution or
//     certifies that the protocol paid the quadratic price. See
//     FalsifyWeakConsensus; `baexp falsify -proto` takes the same route
//     for any catalog ID, lifted to weak consensus by Algorithm 1.
//   - The validity-property formalism of §4/§5 with exact finite-domain
//     checkers for triviality and the containment condition, and automatic
//     protocol derivation (Algorithm 2 over interactive consistency) for
//     every solvable problem. See SolveAuthenticated and SolveUnauthenticated.
//   - The classical matching protocols: Dolev-Strong broadcast,
//     authenticated and EIG interactive consistency, Phase-King, plus the
//     zero-message reductions of Algorithms 1 and 2 — all first-class
//     values in the protocol catalog. See Protocols and LookupProtocol.
//   - Live deployment substrates: an in-memory goroutine mesh and a TCP
//     loopback mesh running the same machines over real channels. See
//     NewMemMesh, NewTCPMesh and RunClusterFor.
//
// There is one route per capability. A cataloged protocol is
// LookupProtocol plus p.Build(params), and every consumer takes the
// handle (NewCampaignFor, NewFuzzerFor, NewReplicatedLogFor,
// RunClusterFor); a protocol of your own is any Factory, hunted with a
// keyed Campaign{Target: AttackTarget{...}} literal. A name is exported
// because an example under examples/ or a root test uses it
// (TestFacadeSurfaceIsUsed); the distributed coordinator, the chaos and
// churn harnesses and the flight recorder are driven through cmd/baexp and
// documented in their own packages.
//
// # Where the rest is written down
//
// Each subsystem is described once, in its package's doc comment;
// README.md names the contract each one keeps, the test that holds it and
// the commands, under the section named here.
//
//   - "The experiment engine": the registry, worker pool and determinism
//     contract behind RunExperiments, and how to add an experiment.
//   - "Protocol catalog": the Spec registry, resilience conditions and the
//     matrix sweep (NewMatrix).
//   - "Adversary hunting": strategies, the random stream and its
//     StreamVersion, campaigns, the shrinker and the evidence standard
//     every reported counterexample meets (NewCampaignFor, Shrink,
//     AttackTarget).
//   - "Adaptive fuzzing": the coverage-guided hunt and its corpus
//     (NewFuzzerFor).
//   - "Distributed campaigns": the Job description every route to an
//     engine is built from, work units, the wire protocol, checkpoints,
//     and the one flag table of `baexp hunt|fuzz|matrix|coord|soak`
//     (internal/dist).
//   - "Chaos & soak testing": chaosnet profiles, churn schedules, the SMR
//     monitors (internal/transport/chaosnet, internal/dist/churn).
//   - "Observability": the flight recorder (internal/obs) as a strict
//     side channel.
//   - "Performance": recording tiers, the hot path, and the repository's
//     benchmark (`bash bench/run.sh`, described in bench/README.md).
//   - "Static analysis": the balint analyzer suite (scripts/lint.sh).
package expensive
