package adversary

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"expensive/internal/experiments/runner"
	"expensive/internal/msg"
	"expensive/internal/obs"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/validity"
)

// campaignObs bundles the campaign's telemetry handles, resolved once per
// Run from the recorder on c.Ctx. The zero value (telemetry off) leaves
// every handle nil, so each instrument call in the probe loop costs one
// pointer check. Telemetry is strictly a side channel: nothing here feeds
// back into probes, verdicts, or the report, which stays byte-identical
// with telemetry on or off.
type campaignObs struct {
	probes     *obs.Counter   // campaign_probes: seeds executed
	violations *obs.Counter   // campaign_violations: violating seeds
	replays    *obs.Counter   // campaign_replays: lean→full replays
	messages   *obs.Counter   // campaign_messages: correct messages observed
	probeNS    *obs.Histogram // campaign_probe_ns: per-probe latency
	sink       *obs.Sink
}

func campaignObsFrom(ctx context.Context) campaignObs {
	rec := obs.From(ctx)
	if rec == nil {
		return campaignObs{}
	}
	return campaignObs{
		probes:     rec.Counter("campaign_probes"),
		violations: rec.Counter("campaign_violations"),
		replays:    rec.Counter("campaign_replays"),
		messages:   rec.Counter("campaign_messages"),
		probeNS:    rec.Histogram("campaign_probe_ns"),
		sink:       rec.Sink(),
	}
}

// SeedRange is the half-open seed interval [From, To) a campaign sweeps.
type SeedRange struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// MaxSeeds is the largest seed-range width a campaign accepts. The cap
// exists for arithmetic safety, not policy: 2³¹ probes is days of compute,
// while a width anywhere near the int64 range used to wrap Count negative,
// slip past the Count()==0 validation, and panic runner.Map's make.
const MaxSeeds = 1 << 31

// Count returns the number of seeds in the range. The width is computed
// in uint64 so a huge To-From cannot wrap negative (From may be negative,
// making the width exceed MaxInt64); widths beyond MaxSeeds are clamped
// to MaxSeeds+1 — still over the cap, so Err reports them — rather than
// truncated into a plausible-looking small count.
func (r SeedRange) Count() int {
	if r.To <= r.From {
		return 0
	}
	if w := uint64(r.To) - uint64(r.From); w > MaxSeeds {
		return MaxSeeds + 1
	}
	return int(r.To - r.From)
}

// Err validates the range: non-empty and within MaxSeeds. Campaign
// validation and the CLI seed-range parser both go through it.
func (r SeedRange) Err() error {
	if r.Count() == 0 {
		return fmt.Errorf("empty seed range [%d, %d)", r.From, r.To)
	}
	if r.Count() > MaxSeeds {
		return fmt.Errorf("seed range [%d, %d) exceeds %d seeds", r.From, r.To, MaxSeeds)
	}
	return nil
}

// Split partitions the range into at most k contiguous ascending
// sub-ranges that cover it exactly, with widths differing by at most one
// (the leading sub-ranges absorb the remainder). Fewer than k sub-ranges
// come back when the range holds fewer than k seeds. An invalid range —
// empty, or wider than MaxSeeds (the clamp Err reports) — yields nil: a
// range that cannot be swept cannot be sharded either.
//
// The partition depends only on (r, k), never on who executes the parts,
// which is what lets the distributed coordinator shard a hunt into
// worker-count-independent units and still merge a byte-identical report.
func (r SeedRange) Split(k int) []SeedRange {
	if r.Err() != nil {
		return nil
	}
	n := int64(r.Count())
	if k <= 0 {
		k = 1
	}
	if int64(k) > n {
		k = int(n)
	}
	out := make([]SeedRange, 0, k)
	base, rem := n/int64(k), n%int64(k)
	from := r.From
	for i := 0; i < k; i++ {
		w := base
		if int64(i) < rem {
			w++
		}
		out = append(out, SeedRange{From: from, To: from + w})
		from += w
	}
	return out
}

// ValidityFunc checks the validity property of one probe outcome: the
// proposal vector, the correct set, and the correct processes' common
// decision. A non-nil error is a validity violation. Termination and
// Agreement are checked by the campaign itself before validity runs.
//
// The concrete checks live in package validity (validity.WeakCheck,
// StrongCheck, SenderCheck, AdmissibleCheck — next to the problem
// formalism they verdict) so that protocol packages can attach their
// validity property to catalog specs without importing this layer.
type ValidityFunc = validity.Check

// AgreementFunc optionally replaces the strict equal-decision Agreement
// check with a pairwise compatibility relation (validity.Compat) for
// protocols whose correct outputs legitimately differ, like graded
// broadcast. When set, the validity property is checked against every
// correct decision instead of the (then ill-defined) common one.
type AgreementFunc = validity.Compat

// Violation is a protocol failure found by a campaign probe, carrying
// everything needed to replay, shrink, and independently re-check it.
type Violation struct {
	Seed int64 `json:"seed"`
	// Kind is "termination", "agreement" or "validity".
	Kind string `json:"kind"`
	// Witness1/D1 and Witness2/D2 locate the violation: for "agreement",
	// two correct processes with different decisions; for "termination", a
	// correct undecided process (Witness2); for "validity", the correct
	// process whose common decision breaks the property (Witness2/D2).
	Witness1 proc.ID   `json:"witness1"`
	D1       msg.Value `json:"d1,omitempty"`
	Witness2 proc.ID   `json:"witness2"`
	D2       msg.Value `json:"d2,omitempty"`
	// Detail narrates the violation.
	Detail string `json:"detail"`
	// Proposals is the input configuration of the probe.
	Proposals []msg.Value `json:"proposals"`
	// Plan is the materialized fault plan exercised by the probe (nil only
	// when the strategy's machines are not replayable).
	Plan *ExplicitPlan `json:"plan,omitempty"`
	// Shrunk is the minimized counterexample, when shrinking ran. The
	// violating execution itself is deliberately not retained: the explicit
	// plan replays it exactly, and holding full traces for every violating
	// seed of a long hunt would dominate the report's footprint.
	Shrunk *ShrinkResult `json:"shrunk,omitempty"`
}

// String renders the violation for diagnostics.
func (v *Violation) String() string {
	return fmt.Sprintf("seed %d: %s violation: %s", v.Seed, v.Kind, v.Detail)
}

// CheckExecution checks Termination, Agreement, and the validity property
// on a recorded execution and returns the first violation found (scanning
// correct processes in ID order, so the verdict is deterministic), or nil
// when every property holds. It works at both recording tiers and is the
// one probe verdict of campaigns, the fuzzer and the shrinker.
//
// With a nil compat relation, Agreement is strict decision equality and
// validity is checked once against the common decision. With a compat
// relation, Agreement is the relation over all correct pairs and validity
// is checked against every correct decision.
func CheckExecution(e *sim.Execution, proposals []msg.Value, validity ValidityFunc, compat AgreementFunc) *Violation {
	correct := e.Correct()
	if compat == nil {
		// Strict path: Termination and Agreement interleave in member
		// order, so the first anomaly in ID order is the verdict (an
		// agreement split at a low ID is reported even when a higher ID is
		// also undecided — the historical, determinism-pinned precedence).
		common, first, odd := e.Unanimity(correct)
		if odd >= 0 {
			d, ok := e.Decision(odd)
			if !ok {
				return &Violation{
					Kind:     "termination",
					Witness2: odd,
					Detail:   fmt.Sprintf("correct %s undecided after %d rounds", odd, e.Rounds),
				}
			}
			return &Violation{
				Kind:     "agreement",
				Witness1: first,
				D1:       common,
				Witness2: odd,
				D2:       d,
				Detail:   fmt.Sprintf("correct %s decided %q, correct %s decided %q", first, common, odd, d),
			}
		}
		if first < 0 {
			return nil // no correct processes to violate anything
		}
		if validity != nil {
			if err := validity(proposals, correct, common); err != nil {
				return &Violation{
					Kind:     "validity",
					Witness2: first,
					D2:       common,
					Detail:   err.Error(),
				}
			}
		}
		return nil
	}
	// Relational path: the pairwise relation needs every decision, so
	// Termination is established first.
	members := correct.Members()
	decisions := make([]msg.Value, len(members))
	for i, id := range members {
		d, ok := e.Decision(id)
		if !ok {
			return &Violation{
				Kind:     "termination",
				Witness2: id,
				Detail:   fmt.Sprintf("correct %s undecided after %d rounds", id, e.Rounds),
			}
		}
		decisions[i] = d
	}
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			if err := compat(decisions[i], decisions[j]); err != nil {
				return &Violation{
					Kind:     "agreement",
					Witness1: members[i],
					D1:       decisions[i],
					Witness2: members[j],
					D2:       decisions[j],
					Detail: fmt.Sprintf("correct %s decided %q, correct %s decided %q: %v",
						members[i], decisions[i], members[j], decisions[j], err),
				}
			}
		}
	}
	if validity != nil {
		for i, id := range members {
			if err := validity(proposals, correct, decisions[i]); err != nil {
				return &Violation{
					Kind:     "validity",
					Witness2: id,
					D2:       decisions[i],
					Detail:   err.Error(),
				}
			}
		}
	}
	return nil
}

// ByzantineSkip returns the processes whose machines the plan replaced —
// the set sim.Conforms must skip, since no honest machine produced their
// behavior.
func ByzantineSkip(plan sim.FaultPlan, faulty proc.Set) proc.Set {
	skip := proc.Set{}
	for _, id := range faulty.Members() {
		if plan.Byzantine(id) != nil {
			skip = skip.Add(id)
		}
	}
	return skip
}

// Bucket is one exact-value histogram bucket.
type Bucket struct {
	Value int `json:"value"`
	Count int `json:"count"`
}

// Histogram is a deterministic exact-value histogram over the probes of a
// campaign (message counts, round counts).
type Histogram struct {
	Min     int      `json:"min"`
	Max     int      `json:"max"`
	Sum     int      `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// NewHistogram builds the deterministic exact-value histogram of values:
// what Add builds from them one at a time, in any order.
func NewHistogram(values []int) Histogram {
	var h Histogram
	for _, v := range values {
		h.Add(v)
	}
	return h
}

// Add counts one more occurrence of v, in place, keeping the buckets
// sorted by value — the form a live fold carries, so a report's
// histograms exist between probes and not only at the end of a run.
func (h *Histogram) Add(v int) {
	if len(h.Buckets) == 0 {
		h.Min, h.Max = v, v
	}
	h.Min, h.Max = min(h.Min, v), max(h.Max, v)
	h.Sum += v
	i, found := slices.BinarySearchFunc(h.Buckets, v, func(b Bucket, v int) int { return cmp.Compare(b.Value, v) })
	if found {
		h.Buckets[i].Count++
		return
	}
	h.Buckets = slices.Insert(h.Buckets, i, Bucket{Value: v, Count: 1})
}

// Merge returns the histogram of the union multiset — the histogram
// NewHistogram would build over the two underlying value slices
// concatenated. Exact-value histograms merge commutatively and
// associatively, which is what lets the distributed coordinator fold
// per-unit sub-reports into the byte-identical single-process histogram.
func (h Histogram) Merge(o Histogram) Histogram {
	if len(h.Buckets) == 0 {
		h, o = o, h
	}
	if len(o.Buckets) == 0 {
		// A copy, never an operand's own buckets: Add writes in place.
		h.Buckets = slices.Clone(h.Buckets)
		return h
	}
	out := Histogram{
		Min: min(h.Min, o.Min),
		Max: max(h.Max, o.Max),
		Sum: h.Sum + o.Sum,
	}
	out.Buckets = make([]Bucket, 0, len(h.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(h.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(h.Buckets) && h.Buckets[i].Value < o.Buckets[j].Value):
			out.Buckets = append(out.Buckets, h.Buckets[i])
			i++
		case i >= len(h.Buckets) || o.Buckets[j].Value < h.Buckets[i].Value:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, Bucket{Value: h.Buckets[i].Value, Count: h.Buckets[i].Count + o.Buckets[j].Count})
			i, j = i+1, j+1
		}
	}
	return out
}

// Campaign is a seeded adversarial hunt: one strategy versus one protocol
// over a range of seeds, every probe fully checked.
type Campaign struct {
	// Target is the protocol under attack (Factory, Rounds, N and T are
	// required).
	Target
	// Strategy is the adversary (required).
	Strategy Strategy
	// Seeds is the half-open seed range to sweep (required, non-empty).
	Seeds SeedRange
	// Proposals overrides the per-seed proposal generator. Default: the
	// strategy's own generator if it has one, else seeded random bits with
	// an occasional lone-dissenter pattern.
	Proposals func(seed int64, env Env) []msg.Value
	// Shrink minimizes every recorded violation after the sweep.
	Shrink bool
	// MaxViolations caps the violations recorded in the report (0 = all).
	// Probes beyond the cap are still counted in ViolationCount.
	MaxViolations int
	// RecordFull holds every seed to Target.Evidence. By default the
	// campaign probes through Target.Probe — the engine loop recording
	// only decisions and message counts — and only the violating seeds pay
	// for the evidence. Reports are byte-identical at both settings.
	RecordFull bool
	// Parallelism is the probe worker count; <= 0 means NumCPU, 1 serial.
	Parallelism int
	// Ctx cancels the sweep; nil means context.Background().
	Ctx context.Context
}

// CampaignReport is the deterministic outcome of a campaign: everything
// in the JSON encoding depends only on the campaign's inputs, never on
// scheduling — reports are byte-identical at every parallelism level.
// Wall-clock statistics are carried alongside but excluded from the
// encoding.
type CampaignReport struct {
	// StreamVersion is the StreamVersion the probes drew their plans and
	// proposals under: the same seeds mean the same probes only within one
	// version.
	StreamVersion int       `json:"stream_version"`
	Protocol      string    `json:"protocol"`
	Strategy      string    `json:"strategy"`
	N             int       `json:"n"`
	T             int       `json:"t"`
	Rounds        int       `json:"round_bound"`
	Horizon       int       `json:"horizon"`
	Seeds         SeedRange `json:"seeds"`
	// Probes counts the executed probes (one per seed).
	Probes int `json:"probes"`
	// Ledger is the fold of the probes: the violations (Violations records
	// up to MaxViolations of them in seed order, each probe's index being
	// its seed's 1-based position in Seeds) and the cost histograms.
	Ledger

	// Timing statistics (excluded from the JSON encoding: they vary run to
	// run while the report above must not).
	Wall         time.Duration `json:"-"`
	WallMS       float64       `json:"-"`
	ProbesPerSec float64       `json:"-"`
	Workers      int           `json:"-"`
}

// Broken reports whether the campaign found at least one violation.
func (r *CampaignReport) Broken() bool { return r.ViolationCount > 0 }

func (c *Campaign) validate() error {
	if err := c.Target.Err(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if c.Strategy.Build == nil {
		return fmt.Errorf("campaign: strategy has no Build function")
	}
	if err := c.Seeds.Err(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// proposalsFor resolves one seed's inputs: the campaign's override, when
// set, stands in for the strategy's own generator.
func (c *Campaign) proposalsFor(seed int64, env Env) []msg.Value {
	s := c.Strategy
	if c.Proposals != nil {
		s.Proposals = c.Proposals
	}
	return s.ProposalsFor(seed, env)
}

// probeResult is one seed's deterministic outcome.
type probeResult struct {
	Cost
	v *Violation
}

// Run sweeps the seed range on the worker pool and returns the report.
// Errors indicate harness failures — an invalid campaign, a strategy
// breaking the fault budget, an engine-invalid trace, or a
// non-conformant honest machine — never mere protocol-property
// violations, which land in the report.
func (c *Campaign) Run() (*CampaignReport, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	env := c.Env()
	workers := runner.Workers(c.Parallelism)
	sw := runner.StartWall()
	co := campaignObsFrom(c.Ctx)
	if co.sink != nil {
		co.sink.Emit("campaign-start",
			"protocol", c.Protocol, "strategy", c.Strategy.Name,
			"n", c.N, "t", c.T, "seeds", c.Seeds.Count(), "workers", workers)
	}

	results, err := runner.Map(c.Ctx, workers, c.Seeds.Count(), func(i int) (probeResult, error) {
		return c.probe(c.Seeds.From+int64(i), env, co)
	})
	if err != nil {
		return nil, err
	}

	report := c.newReport()
	report.Probes, report.Workers = len(results), workers
	for i, res := range results {
		report.Add(i+1, res.Cost, res.v, c.MaxViolations)
	}

	if c.Shrink {
		opts := c.RecheckOptions()
		opts.Obs = obs.From(c.Ctx)
		if err := ShrinkAll(report.Violations, opts); err != nil {
			return nil, err
		}
	}

	report.Wall, report.WallMS, report.ProbesPerSec = sw.WallStats(report.Probes)
	if co.sink != nil {
		co.sink.Emit("campaign-end",
			"protocol", c.Protocol, "strategy", c.Strategy.Name,
			"probes", report.Probes, "violations", report.ViolationCount,
			"first_violation_probe", report.FirstViolationProbe)
	}
	return report, nil
}

// newReport is the header every report of this campaign starts from.
func (c *Campaign) newReport() *CampaignReport {
	return &CampaignReport{
		StreamVersion: StreamVersion,
		Protocol:      c.Protocol,
		Strategy:      c.Strategy.Name,
		N:             c.N,
		T:             c.T,
		Rounds:        c.Rounds,
		Horizon:       c.Env().Horizon,
		Seeds:         c.Seeds,
	}
}

// Merge folds the reports of sub-campaigns over consecutive pieces of
// c.Seeds, in ascending seed order, into the report Run produces over the
// whole range (before shrinking, which runs once, on the merged report);
// each sub-campaign must have recorded under the same MaxViolations.
// A nil entry is a piece nobody probed; its probes are simply missing.
func (c *Campaign) Merge(subs []*CampaignReport) *CampaignReport {
	report := c.newReport()
	for _, sub := range subs {
		if sub == nil {
			continue
		}
		report.Ledger.Merge(&sub.Ledger, report.Probes, c.MaxViolations)
		report.Probes += sub.Probes
	}
	return report
}

// RecheckOptions returns the configuration for independently re-checking
// (or further shrinking) violations this campaign found: its own target.
func (c *Campaign) RecheckOptions() ShrinkOptions { return ShrinkOptions{Target: c.Target} }

// probe executes one seed: through Target.Probe at the default lean tier,
// through Target.Evidence on every seed with RecordFull set.
func (c *Campaign) probe(seed int64, env Env, co campaignObs) (probeResult, error) {
	t := co.probeNS.StartTimer()
	defer func() {
		t.Stop()
		co.probes.Inc()
	}()
	proposals := c.proposalsFor(seed, env)
	var e *sim.Execution
	var v *Violation
	var err error
	if c.RecordFull {
		e, _, v, err = c.Target.Evidence(env, c.Strategy.Build(seed, env), proposals)
	} else {
		e, v, err = c.Target.Probe(env, func() sim.FaultPlan { return c.Strategy.Build(seed, env) }, proposals)
	}
	if err != nil {
		return probeResult{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	res := probeResult{Cost: CostOf(e), v: v}
	co.messages.Add(int64(res.Messages))
	if v == nil {
		return res, nil
	}
	v.Seed = seed
	co.violations.Inc()
	if !c.RecordFull {
		co.replays.Inc()
	}
	if co.sink != nil {
		co.sink.Emit("violation-found",
			"protocol", c.Protocol, "strategy", c.Strategy.Name,
			"seed", seed, "kind", v.Kind, "detail", v.Detail)
	}
	return res, nil
}
