// Package catalog makes "a protocol" a first-class, introspectable value.
//
// The paper's whole argument is a quantified statement over *every*
// Byzantine agreement protocol; this package gives the repo the matching
// vocabulary. A Spec carries a protocol's identity, its model
// (authenticated / unauthenticated / crash), its resilience condition as
// both a predicate and a human-readable string, its decision-round bound,
// and a builder from one uniform parameter struct. Protocol packages
// self-register at init (see the register.go file of each package under
// internal/protocols, and internal/catalog/all for the aggregate import),
// so every consumer — the adversary campaigns, the matrix engine, the CLI
// listings — derives its protocol offerings from one registry instead of
// hand-maintained tables.
package catalog

import (
	"errors"
	"fmt"

	"expensive/internal/crypto/sig"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// Model classifies a protocol's fault and authentication setting — the
// taxonomy axis of the survey literature (authenticated algorithms need a
// signature scheme; crash-only algorithms are sound only below omission
// faults).
type Model string

const (
	// Authenticated protocols rely on a signature scheme (§5.1) and
	// typically tolerate any t < n.
	Authenticated Model = "authenticated"
	// Unauthenticated protocols are signature-free; the solvability
	// frontier is n > 3t (Theorem 4).
	Unauthenticated Model = "unauthenticated"
	// CrashOnly protocols are sound under crash faults but not under the
	// omission adversary the lower bound is proven against (E10).
	CrashOnly Model = "crash"
)

// Bottom is the canonical default decision value.
const Bottom = msg.Value("⊥")

// Params is the uniform construction input of every cataloged protocol.
// A spec declares which fields it consumes via NeedsScheme, NeedsSender
// and NeedsDefault; Build validates the declared requirements centrally.
type Params struct {
	// N and T fix the system: |Π| = n, at most t faulty.
	N, T int
	// Sender is the designated sender of broadcast-style protocols.
	Sender proc.ID
	// Scheme is the signature scheme of authenticated protocols.
	Scheme sig.Scheme
	// Default is the fallback decision (equivocating sender, invalid
	// proposals, silent broadcast instances).
	Default msg.Value
}

// Sentinel errors for Build failures; match with errors.Is.
var (
	// ErrUnsupported marks an (n, t) outside the protocol's resilience
	// condition.
	ErrUnsupported = errors.New("unsupported (n, t)")
	// ErrBadParams marks structurally invalid parameters (t >= n, missing
	// scheme or default, sender outside Π).
	ErrBadParams = errors.New("invalid parameters")
)

// ParamsError is the typed validation failure returned by Spec.Build and
// Spec.Validate: which protocol refused, which field, and why. It wraps
// ErrUnsupported or ErrBadParams for errors.Is dispatch.
type ParamsError struct {
	Protocol string
	Field    string // "n/t", "sender", "scheme" or "default"
	Reason   string
	Err      error
}

// Error implements error.
func (e *ParamsError) Error() string {
	return fmt.Sprintf("%s: %s", e.Protocol, e.Reason)
}

// Unwrap exposes the sentinel.
func (e *ParamsError) Unwrap() error { return e.Err }

// Spec is a first-class protocol: identity, taxonomy, requirements, round
// bound, and builder. Specs are immutable values; the zero Spec is
// invalid (Register rejects it).
type Spec struct {
	// ID is the registry key ("dolev-strong", "floodset", ...).
	ID string
	// Title is a one-line human description.
	Title string
	// Model is the protocol's fault/authentication setting.
	Model Model
	// Condition is the human-readable resilience condition ("t < n",
	// "n > 3t", "n > 4t").
	Condition string
	// Supports is the resilience predicate beyond the universal
	// 0 <= t < n, n >= 2; nil means no further constraint.
	Supports func(n, t int) bool
	// NeedsScheme, NeedsSender and NeedsDefault declare which Params
	// fields the builder consumes; Build validates them centrally.
	NeedsScheme, NeedsSender, NeedsDefault bool
	// Rounds is the decision-round bound at (n, t).
	Rounds func(n, t int) int
	// New is the raw builder. Build calls it only after Validate has
	// checked p, so it does not re-check the resilience condition or the
	// Needs* fields. Errors are reserved for constructions that are
	// genuinely impossible (e.g. an Algorithm 2 derivation refused by
	// Theorem 4).
	New func(p Params) (sim.Factory, error)
	// Decode optionally renders a decision value human-readable (IC
	// vectors, gradecast (grade, value) pairs).
	Decode func(v msg.Value) (string, error)
	// Validity optionally supplies the protocol's validity property for
	// adversarial campaigns (sender validity needs the designated sender,
	// hence the Params argument).
	Validity func(p Params) validity.Check
	// Agreement optionally replaces strict equal-decision Agreement with a
	// pairwise compatibility relation in campaigns — graded broadcast
	// promises G2/G3, not identical outputs.
	Agreement validity.Compat
}

// SupportedAt reports whether the protocol's resilience condition admits
// (n, t). Matrix sweeps use it to mark unsupported cells skipped instead
// of constructing protocols outside their guarantees.
func (s Spec) SupportedAt(n, t int) bool {
	if n < 2 || t < 0 || t >= n {
		return false
	}
	return s.Supports == nil || s.Supports(n, t)
}

// Validate checks p against the spec's declared requirements and returns
// a typed *ParamsError (wrapping ErrBadParams or ErrUnsupported) on the
// first failure.
func (s Spec) Validate(p Params) error {
	bad := func(field, format string, args ...any) error {
		return &ParamsError{Protocol: s.ID, Field: field, Reason: fmt.Sprintf(format, args...), Err: ErrBadParams}
	}
	switch {
	case p.N < 2:
		return bad("n/t", "need n >= 2, got n=%d", p.N)
	case p.T < 0:
		return bad("n/t", "need t >= 0, got t=%d", p.T)
	case p.T >= p.N:
		return bad("n/t", "need t < n, got n=%d t=%d", p.N, p.T)
	}
	if !s.SupportedAt(p.N, p.T) {
		return &ParamsError{
			Protocol: s.ID,
			Field:    "n/t",
			Reason:   fmt.Sprintf("requires %s, got n=%d t=%d", s.Condition, p.N, p.T),
			Err:      ErrUnsupported,
		}
	}
	if s.NeedsScheme && p.Scheme == nil {
		return bad("scheme", "requires a signature scheme (%s model)", s.Model)
	}
	if s.NeedsSender && (p.Sender < 0 || int(p.Sender) >= p.N) {
		return bad("sender", "sender %s outside Π = {0..%d}", p.Sender, p.N-1)
	}
	if s.NeedsDefault && p.Default == "" {
		return bad("default", "requires a default decision value")
	}
	return nil
}

// Build validates p centrally and constructs the protocol, returning the
// honest-machine factory and its decision-round bound. This is the
// checked path every new consumer should use; invalid (n, t) combinations
// yield typed errors instead of protocols that silently misbehave.
func (s Spec) Build(p Params) (sim.Factory, int, error) {
	if err := s.Validate(p); err != nil {
		return nil, 0, err
	}
	f, err := s.New(p)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", s.ID, err)
	}
	return f, s.Rounds(p.N, p.T), nil
}

// ValidityFor resolves the campaign validity property at p (nil when the
// spec declares none: Termination and Agreement are still checked).
func (s Spec) ValidityFor(p Params) validity.Check {
	if s.Validity == nil {
		return nil
	}
	return s.Validity(p)
}

// Rebuilder returns the (n, t) -> protocol hook that campaigns and the
// shrinker use to reduce system size, holding p's auxiliary fields
// (sender, scheme, default) fixed. Sizes outside the resilience condition
// are refused with a typed error, which the shrinker treats as "don't go
// there".
func (s Spec) Rebuilder(p Params) func(n, t int) (sim.Factory, int, error) {
	return func(n, t int) (sim.Factory, int, error) {
		q := p
		q.N, q.T = n, t
		return s.Build(q)
	}
}

// DefaultParams returns the canonical parameters at (n, t): sender 0, the
// idealized deterministic signature scheme, and ⊥ as the default
// decision. Every registry-driven sweep (hunts, the matrix engine, the
// completeness tests) uses these unless overridden, which is what keeps
// grid reports reproducible across machines.
func DefaultParams(n, t int) Params {
	return Params{N: n, T: t, Sender: 0, Scheme: sig.NewIdeal("catalog"), Default: Bottom}
}
