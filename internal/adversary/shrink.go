package adversary

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/obs"
	"expensive/internal/proc"
)

// ShrinkOptions parameterize the shrinker with the protocol the violation
// was found against.
type ShrinkOptions struct {
	// Target is the protocol at the violation's original system size
	// (Factory, Rounds, N and T are required); its New hook enables
	// n-shrinking.
	Target
	// Obs optionally receives shrink telemetry (a shrink_steps counter and
	// shrink-step trace events). Nil — the default — costs one pointer
	// check per candidate replay; the ShrinkResult itself never depends on
	// it.
	Obs *obs.Recorder
}

// ShrinkResult is a minimized counterexample: an explicit fault plan from
// which no single corruption or omission can be removed (and, when New is
// available, no process dropped) without the violation disappearing.
type ShrinkResult struct {
	// N and Rounds are the (possibly reduced) system size and round bound;
	// Horizon is the execution length the minimal plan was validated at.
	N       int `json:"n"`
	Rounds  int `json:"round_bound"`
	Horizon int `json:"horizon"`
	// Plan is the minimal fault plan.
	Plan ExplicitPlan `json:"plan"`
	// Proposals is the (possibly truncated) input configuration.
	Proposals []msg.Value `json:"proposals"`
	// Kind and Detail describe the violation the minimal plan produces
	// (shrinking preserves failure, not necessarily the original kind).
	Kind     string    `json:"kind"`
	Detail   string    `json:"detail"`
	Witness1 int       `json:"witness1"`
	D1       msg.Value `json:"d1,omitempty"`
	Witness2 int       `json:"witness2"`
	D2       msg.Value `json:"d2,omitempty"`
	// FaultyBefore/After and OmitBefore/After measure the reduction;
	// NBefore records the original system size.
	FaultyBefore int `json:"faulty_before"`
	FaultyAfter  int `json:"faulty_after"`
	OmitBefore   int `json:"omit_before"`
	OmitAfter    int `json:"omit_after"`
	NBefore      int `json:"n_before"`
	// Steps counts the candidate replays the shrinker evaluated.
	Steps int `json:"steps"`
}

// String summarizes the reduction.
func (s *ShrinkResult) String() string {
	return fmt.Sprintf("%s violation with %d faulty (was %d), %d omissions (was %d), n=%d (was %d) after %d replays",
		s.Kind, s.FaultyAfter, s.FaultyBefore, s.OmitAfter, s.OmitBefore, s.N, s.NBefore, s.Steps)
}

// shrinker carries the mutable state of one minimization.
type shrinker struct {
	steps int

	// Telemetry handles, nil when ShrinkOptions.Obs is nil.
	obsSteps *obs.Counter // shrink_steps: candidate replays evaluated
	sink     *obs.Sink

	// cur is the current protocol instance, horizon resolved (changes when
	// n shrinks).
	cur Target

	plan      ExplicitPlan
	proposals []msg.Value
	last      *Violation // violation of the current (accepted) state
}

// replay runs a candidate plan from scratch through Target.Replay and
// returns the violation it produces, or nil when the candidate no longer
// fails (or is not even a valid, conformant execution — such candidates
// are rejected, keeping every accepted step machine-checkable).
func (s *shrinker) replay(target *Target, plan ExplicitPlan, proposals []msg.Value) *Violation {
	s.steps++
	s.obsSteps.Inc()
	env := target.Env()
	_, v, err := target.Replay(env, plan.Plan(env), proposals)
	if err != nil {
		return nil
	}
	return v
}

// try evaluates a candidate plan at the current size and accepts it when
// the violation persists.
func (s *shrinker) try(cand ExplicitPlan) bool {
	v := s.replay(&s.cur, cand, s.proposals)
	if v == nil {
		return false
	}
	s.plan, s.last = cand, v
	if s.sink != nil {
		s.sink.Emit("shrink-step",
			"n", s.cur.N, "faulty", len(s.plan.Faulty), "omissions", s.plan.Omissions(), "step", s.steps)
	}
	return true
}

// minimizeElements greedily removes corrupted processes and omitted
// message identities until no single removal preserves the violation
// (1-minimality). Candidates are tried in deterministic order.
func (s *shrinker) minimizeElements() {
	for improved := true; improved; {
		improved = false
		ids := append([]proc.ID(nil), s.plan.Faulty...)
		for _, id := range ids {
			if !s.plan.FaultySet().Contains(id) {
				continue // removed together with an earlier candidate
			}
			if s.try(s.plan.withoutProc(id)) {
				improved = true
			}
		}
		for i := 0; i < len(s.plan.SendOmit); {
			if s.try(s.plan.withoutSendOmit(i)) {
				improved = true // same index now names the next key
			} else {
				i++
			}
		}
		for i := 0; i < len(s.plan.ReceiveOmit); {
			if s.try(s.plan.withoutReceiveOmit(i)) {
				improved = true
			} else {
				i++
			}
		}
	}
}

// minimizeN drops the highest-numbered process while the protocol can be
// rebuilt at the smaller size and the violation persists.
func (s *shrinker) minimizeN() {
	if s.cur.New == nil {
		return
	}
	for s.cur.N > 2 && s.cur.N-1 > s.cur.T {
		next := s.cur
		next.N--
		var err error
		if next.Factory, next.Rounds, err = s.cur.New(next.N, next.T); err != nil {
			return
		}
		// Re-derive the horizon for the rebuilt protocol by preserving the
		// slack (Horizon - Rounds), never the absolute number: when New
		// returns a smaller round bound, a defaulted horizon (slack 2)
		// becomes rounds2+2 and a custom horizon keeps its semantics at
		// the smaller size. Carrying the original horizon over would
		// replay a smaller-rounds protocol past (or short of) the window
		// the violation was defined in — TestShrinkRederivesHorizon pins
		// this with a rounds-reducing New.
		next.Horizon = next.Rounds + (s.cur.Horizon - s.cur.Rounds)
		plan2 := s.plan.filterTo(next.N)
		proposals2 := append([]msg.Value(nil), s.proposals[:next.N]...)
		v := s.replay(&next, plan2, proposals2)
		if v == nil {
			return
		}
		s.cur, s.plan, s.proposals, s.last = next, plan2, proposals2, v
	}
}

// Shrink minimizes a campaign violation into a 1-minimal explicit fault
// plan, re-validating every candidate step against the execution
// guarantees and machine conformance. The violation must carry a
// replayable plan (Violation.Plan != nil).
func Shrink(v *Violation, opts ShrinkOptions) (*ShrinkResult, error) {
	if v == nil || v.Plan == nil {
		return nil, fmt.Errorf("shrink: violation carries no replayable plan")
	}
	if opts.Factory == nil || opts.Rounds <= 0 || opts.N < 2 {
		return nil, fmt.Errorf("shrink: options need Factory, Rounds and N")
	}
	s := &shrinker{
		cur:       opts.Target,
		plan:      v.Plan.Clone(),
		proposals: append([]msg.Value(nil), v.Proposals...),
		obsSteps:  opts.Obs.Counter("shrink_steps"),
		sink:      opts.Obs.Sink(),
	}
	s.cur.Horizon = opts.Env().Horizon
	// The materialized plan must reproduce a violation before anything is
	// removed; if it does not, the certificate was never replayable.
	if s.last = s.replay(&s.cur, s.plan, s.proposals); s.last == nil {
		return nil, fmt.Errorf("shrink: violation of seed %d does not replay from its explicit plan", v.Seed)
	}

	// Shrink the system size before individual elements: the element pass
	// is free to concentrate the surviving omissions on high process IDs,
	// which would block n-reduction if it ran first. Each pass can expose
	// work for the other, so iterate to a fixpoint (progress is monotone —
	// n, |faulty| and omission counts only ever decrease).
	for {
		n, faulty, omits := s.cur.N, len(s.plan.Faulty), s.plan.Omissions()
		s.minimizeN()
		s.minimizeElements()
		if s.cur.N == n && len(s.plan.Faulty) == faulty && s.plan.Omissions() == omits {
			break
		}
	}

	return &ShrinkResult{
		N:            s.cur.N,
		Rounds:       s.cur.Rounds,
		Horizon:      s.cur.Horizon,
		Plan:         s.plan,
		Proposals:    s.proposals,
		Kind:         s.last.Kind,
		Detail:       s.last.Detail,
		Witness1:     int(s.last.Witness1),
		D1:           s.last.D1,
		Witness2:     int(s.last.Witness2),
		D2:           s.last.D2,
		FaultyBefore: len(v.Plan.Faulty),
		FaultyAfter:  len(s.plan.Faulty),
		OmitBefore:   v.Plan.Omissions(),
		OmitAfter:    s.plan.Omissions(),
		NBefore:      opts.N,
		Steps:        s.steps,
	}, nil
}

// Recheck independently re-validates a violation certificate — a hunt,
// fuzz, matrix or falsifier one alike: the explicit plan (the shrunken one
// when present) is replayed from scratch through Target.Replay and must
// exhibit exactly the recorded violation.
func Recheck(v *Violation, opts ShrinkOptions) error {
	if v == nil {
		return fmt.Errorf("recheck: nil violation")
	}
	target, plan, proposals, want := opts.Target, v.Plan, v.Proposals, v
	if sh := v.Shrunk; sh != nil {
		plan, proposals = &sh.Plan, sh.Proposals
		want = &Violation{Kind: sh.Kind, Witness1: proc.ID(sh.Witness1), D1: sh.D1, Witness2: proc.ID(sh.Witness2), D2: sh.D2}
		// Replay at the size and horizon the shrinker validated the minimal
		// plan under (it tracks the campaign's Horizon slack across n
		// changes).
		if sh.N != opts.N {
			if opts.New == nil {
				return fmt.Errorf("recheck: shrunk to n=%d but no protocol constructor supplied", sh.N)
			}
			var err error
			if target.Factory, target.Rounds, err = opts.New(sh.N, opts.T); err != nil {
				return fmt.Errorf("recheck: rebuild protocol at n=%d: %w", sh.N, err)
			}
			target.N = sh.N
		}
		target.Horizon = sh.Horizon
	}
	if plan == nil {
		return fmt.Errorf("recheck: violation carries no replayable plan")
	}
	if target.Factory == nil {
		return fmt.Errorf("recheck: options carry no factory")
	}
	env := target.Env()
	_, got, err := target.Replay(env, plan.Plan(env), proposals)
	switch {
	case err != nil:
		return fmt.Errorf("recheck: %w", err)
	case got == nil:
		return fmt.Errorf("recheck: replayed execution exhibits no violation")
	case !sameVerdict(got, want):
		return fmt.Errorf("recheck: replayed violation %q (%s/%s) does not match recorded %q (%s/%s)",
			got.Kind, got.Witness1, got.Witness2, want.Kind, want.Witness1, want.Witness2)
	}
	return nil
}
