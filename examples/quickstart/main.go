// Quickstart: run binary weak consensus among five processes over an
// in-memory mesh (one goroutine per process), then put the message count
// beside the Theorem 2 floor t²/32 — and say what that floor means at a
// size this small.
package main

import (
	"fmt"
	"log"

	"expensive"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		n = 5
		t = 1
	)

	// Phase-King: unauthenticated strong consensus (n > 4t) — and binary
	// strong validity implies weak validity, so this is weak consensus too.
	// Protocols are first-class catalog values: look one up by ID and
	// run it with centrally validated parameters.
	proto, ok := expensive.LookupProtocol("weak-phase-king")
	if !ok {
		return fmt.Errorf("weak-phase-king is not in the catalog")
	}
	fmt.Printf("protocol: %s — %s (%s, %s)\n\n", proto.ID, proto.Title, proto.Model, proto.Condition)

	proposals := []expensive.Value{
		expensive.One, expensive.Zero, expensive.One, expensive.One, expensive.Zero,
	}

	mesh := expensive.NewMemMesh(n, nil)
	results, err := expensive.RunClusterFor(mesh, proto, expensive.DefaultProtocolParams(n, t), proposals)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}

	total := 0
	for _, r := range results {
		fmt.Printf("process %s proposed %s, decided %s (sent %d messages)\n",
			r.ID, proposals[r.ID], r.Decision, r.Sent)
		total += r.Sent
	}

	decision, err := expensive.ClusterDecision(results, expensive.Universe(n))
	if err != nil {
		return fmt.Errorf("agreement: %w", err)
	}
	fmt.Printf("\nunanimous decision: %s after %d rounds, %d messages total\n", decision, proto.Rounds(n, t), total)
	fmt.Printf("Theorem 2 floor for t=%d: t²/32 = %d — the bound is asymptotic (it first exceeds 0 at t=6, then grows as t²); at this size the %d messages are Phase-King's own cost\n",
		t, expensive.Floor(t), total)
	return nil
}
