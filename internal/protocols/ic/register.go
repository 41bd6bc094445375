package ic

import (
	"fmt"
	"strings"

	"expensive/internal/catalog"
	"expensive/internal/msg"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// The catalog entry: authenticated interactive consistency (n parallel
// Dolev-Strong instances), decisions are encoded n-vectors.
func init() {
	catalog.Register(catalog.Spec{
		ID:           "ic",
		Title:        "authenticated interactive consistency (n × Dolev-Strong)",
		Model:        catalog.Authenticated,
		Condition:    "t < n",
		NeedsScheme:  true,
		NeedsDefault: true,
		Rounds:       func(n, t int) int { return RoundBound(t) },
		New: func(p catalog.Params) (sim.Factory, error) {
			return New(Config{N: p.N, T: p.T, Scheme: p.Scheme, Default: p.Default}), nil
		},
		Decode:   DecodeDecision,
		Validity: func(catalog.Params) validity.Check { return validity.VectorCheck },
	})
}

// DecodeDecision renders an IC decision vector human-readable:
// "[v0 v1 ... vn-1]". It reads msg.SharedVector's memoized vector; only a
// decision that is not a vector is decoded again, for the error's text.
func DecodeDecision(v msg.Value) (string, error) {
	vec, ok := msg.SharedVector(v)
	if !ok {
		_, err := msg.DecodeVector(v)
		return "", fmt.Errorf("not an IC vector: %w", err)
	}
	parts := make([]string, len(vec))
	for i, e := range vec {
		parts[i] = string(e)
	}
	return "[" + strings.Join(parts, " ") + "]", nil
}
