package adversary

import "expensive/internal/sim"

// Cost is what one probe spent: the paper's metric — messages sent by
// correct processes — and the rounds the execution recorded. It is
// declared once; fuzz.Outcome ships it over the wire under these keys.
type Cost struct {
	Messages int `json:"messages"`
	Rounds   int `json:"rounds"`
}

// CostOf reads an execution's cost, at either recording tier.
func CostOf(e *sim.Execution) Cost {
	return Cost{Messages: e.CorrectMessages(), Rounds: e.Rounds}
}

// Ledger is the fold of a run's probes: which violated, and what all of
// them cost. CampaignReport and fuzz.Report both end in it (embedded, so
// its fields are theirs in the JSON encoding), and Add and Merge are the
// only code that knows the first-violation rule, the recording cap and
// the histograms — a statistic added here reaches every report, merge
// and checkpoint at once.
type Ledger struct {
	// ViolationCount counts every violating probe; Violations records the
	// first keep of them in probe order.
	ViolationCount int          `json:"violation_count"`
	Violations     []*Violation `json:"violations,omitempty"`
	// FirstViolationProbe is the 1-based index of the first violating
	// probe, 0 when the run stayed clean — the probes-to-first-violation
	// metric the blind-sweep vs adaptive-fuzzing comparison reads.
	FirstViolationProbe int `json:"first_violation_probe"`
	// Messages and RoundsHist are exact-value histograms over the probes'
	// correct-message counts and recorded round counts.
	Messages   Histogram `json:"messages"`
	RoundsHist Histogram `json:"rounds"`
}

// Add folds in the probe with 1-based index probe. Probes must arrive in
// index order. v is nil for a clean probe; keep caps the violations
// recorded (<= 0 records all), and one beyond the cap is still counted.
func (l *Ledger) Add(probe int, c Cost, v *Violation, keep int) {
	l.Messages.Add(c.Messages)
	l.RoundsHist.Add(c.Rounds)
	if v == nil {
		return
	}
	if l.FirstViolationProbe == 0 {
		l.FirstViolationProbe = probe
	}
	l.ViolationCount++
	if keep <= 0 || len(l.Violations) < keep {
		l.Violations = append(l.Violations, v)
	}
}

// Merge folds in o, the ledger of the probes that follow the before
// probes l already holds, leaving l what Add over both runs in order
// would have built. It works because both sides record up to the same
// keep: the overall first keep violations are a prefix of the two lists
// concatenated, a first-violation index shifts by the probes before it,
// and exact-value histograms merge losslessly. o is not modified.
func (l *Ledger) Merge(o *Ledger, before, keep int) {
	if l.FirstViolationProbe == 0 && o.FirstViolationProbe > 0 {
		l.FirstViolationProbe = before + o.FirstViolationProbe
	}
	l.ViolationCount += o.ViolationCount
	l.Violations = append(l.Violations, o.Violations...)
	if keep > 0 && len(l.Violations) > keep {
		l.Violations = l.Violations[:keep]
	}
	l.Messages = l.Messages.Merge(o.Messages)
	l.RoundsHist = l.RoundsHist.Merge(o.RoundsHist)
}
