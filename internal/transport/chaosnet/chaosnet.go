// Package chaosnet is the fault-injecting transport wrapper: it decorates
// any transport.Endpoint mesh with per-link drop, delay, duplicate,
// reorder, corrupt and windowed-partition faults, every one of them a pure
// function of a seed. The package reuses the adversary package's
// seed/strategy idiom — a Plan is built from composable Rules by a named
// Profile exactly like a sim.FaultPlan is built by an adversary.Strategy,
// and every independent random stream is derived through adversary.SubSeed
// so one seed replays one chaos run.
//
// Determinism contract: which frames are dropped, corrupted or partitioned
// is decided by hashing (seed, link, sequence) — never by real time — so
// the information a protocol run observes is identical across replays.
// Delay and reorder perturb only timing and arrival order, which the
// hardened transport.RunNode round barrier absorbs; payload bytes and
// round structure are untouched. A cluster run under a chaos plan is
// therefore as replayable as a simulator run under a fault plan.
//
// Faults follow the transport's omission idiom (see memnet.DropFilter):
// a dropped or corruption-voided payload leaves an empty frame behind, so
// round synchrony survives while information is lost. Corruption is
// realized honestly — the sender mangles a checksum the receiver verifies,
// so "corrupt" means "detected and voided", deterministically per frame.
package chaosnet

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/obs"
	"expensive/internal/proc"
	"expensive/internal/transport"
)

// Kind names one fault primitive a Rule injects.
type Kind string

// The fault primitives. Drop, Corrupt and Partition void payloads (the
// frame survives empty, the omission idiom); Delay and Reorder perturb
// timing only; Duplicate resends a frame (the round barrier dedups);
// Cut severs the underlying connection and is consumed by the dist wire
// injector — the mesh wrapper ignores it, since a mesh node has no
// reconnect path.
const (
	Drop      Kind = "drop"
	Delay     Kind = "delay"
	Duplicate Kind = "duplicate"
	Reorder   Kind = "reorder"
	Corrupt   Kind = "corrupt"
	Cut       Kind = "cut"
	Partition Kind = "partition"
)

// Rule is one composable fault clause of a Plan.
type Rule struct {
	Kind Kind
	// Pct is the per-frame firing probability (0..100), decided
	// deterministically per (seed, link, seq) like the adversary's coin.
	// Partition rules ignore it (their windows are periodic, not random).
	Pct int
	// MaxDelay bounds the latency a Delay rule injects (default 10ms).
	MaxDelay time.Duration
	// Lo and Hi gate the rule to the sequence window [Lo, Hi] inclusive,
	// mirroring adversary.Windowed. Hi == 0 means unbounded above.
	Lo, Hi int
	// Period and Width drive a Partition rule: within every Period
	// consecutive seqs the first Width are partitioned, and the cut set is
	// re-drawn per window so successive partitions isolate different groups.
	Period, Width int
}

// Env parameterizes plan construction, mirroring adversary.Env.
type Env struct {
	// N is the number of processes on the mesh. 0 defaults to 64, the
	// opaque-ID mode wire links use (dist keys fault streams by worker
	// slot, not by a mesh size).
	N int
	// T, when positive, imposes the paper's fault budget: the plan draws a
	// seed-chosen non-empty set of at most T processes and restricts every
	// fault to links touching that set, so a t-resilient protocol's
	// guarantees must survive the whole plan.
	T int
}

// Faults is the verdict for one frame on one directed link at one
// sequence point.
type Faults struct {
	Drop      bool
	Duplicate bool
	Reorder   bool
	Corrupt   bool
	Cut       bool
	Delay     time.Duration
}

// Plan is a frozen, seed-deterministic fault schedule. The same
// (name, seed, env, rules) always yields identical Faults verdicts.
type Plan struct {
	name      string
	env       Env
	rules     []Rule
	ruleSeeds []int64
	budget    proc.Set
}

// NewPlan freezes a fault schedule from composable rules. Each rule gets
// its own derived seed stream, so adding a rule never perturbs the
// decisions of the others — the same property adversary.Union gives its
// component strategies.
func NewPlan(name string, seed int64, env Env, rules ...Rule) *Plan {
	if env.N <= 0 {
		env.N = 64
	}
	p := &Plan{name: name, env: env, rules: rules, ruleSeeds: make([]int64, len(rules))}
	for i, r := range rules {
		p.ruleSeeds[i] = adversary.SubSeed(seed, fmt.Sprintf("chaosnet|%s|rule%d|%s", name, i, r.Kind))
	}
	if env.T > 0 {
		rng := rand.New(rand.NewSource(adversary.SubSeed(seed, "chaosnet|"+name+"|budget")))
		count := 1 + rng.Intn(env.T)
		for p.budget.Len() < count {
			p.budget = p.budget.Add(proc.ID(rng.Intn(env.N)))
		}
	}
	return p
}

// Name reports the plan's profile name.
func (p *Plan) Name() string { return p.name }

// Uses reports whether any rule of the plan injects kind k. A link that
// cannot apply some kind (a mesh cannot Cut; a dist coordinator link cannot
// Duplicate, Reorder or Corrupt) refuses a plan that uses it instead of
// running it silently clean.
func (p *Plan) Uses(k Kind) bool {
	if p == nil {
		return false
	}
	for _, r := range p.rules {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// Budget reports the fault-budget set the plan is restricted to (empty
// when the plan is unrestricted infrastructure chaos, Env.T == 0).
func (p *Plan) Budget() proc.Set { return p.budget }

// Faults returns the fault verdict for the seq-th frame on the directed
// link from -> to. On meshes seq is the round number; on dist wire
// connections it is a per-direction frame counter. Pure in
// (plan, from, to, seq).
func (p *Plan) Faults(from, to proc.ID, seq int) Faults {
	var f Faults
	if p == nil {
		return f
	}
	if !p.budget.Empty() && !p.budget.Contains(from) && !p.budget.Contains(to) {
		return f
	}
	for i, r := range p.rules {
		if seq < r.Lo || (r.Hi > 0 && seq > r.Hi) {
			continue
		}
		seed := p.ruleSeeds[i]
		if r.Kind == Partition {
			if r.Period <= 0 || r.Width <= 0 || seq%r.Period >= r.Width {
				continue
			}
			if p.crossesCut(seed, seq/r.Period, from, to) {
				f.Drop = true
			}
			continue
		}
		if !hit(seed, from, to, seq, r.Pct) {
			continue
		}
		switch r.Kind {
		case Drop:
			f.Drop = true
		case Delay:
			f.Delay = delayFor(seed, from, to, seq, r.MaxDelay)
		case Duplicate:
			f.Duplicate = true
		case Reorder:
			f.Reorder = true
		case Corrupt:
			f.Corrupt = true
		case Cut:
			f.Cut = true
		}
	}
	return f
}

// crossesCut decides whether a link crosses the partition of the given
// window. Budgeted plans isolate the budget set (the E_G(k) shape of the
// paper's lower-bound construction); unrestricted plans split the mesh
// into two seed-chosen halves, re-drawn each window.
func (p *Plan) crossesCut(seed int64, window int, from, to proc.ID) bool {
	if !p.budget.Empty() {
		return p.budget.Contains(from) != p.budget.Contains(to)
	}
	return side(seed, window, from) != side(seed, window, to)
}

func side(seed int64, window int, id proc.ID) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%d|%d", seed, window, id)
	return h.Sum32()%2 == 0
}

// hit is the chaos analogue of the adversary's per-message coin: the same
// (seed, link, seq) always lands the same way.
func hit(seed int64, from, to proc.ID, seq, pct int) bool {
	if pct <= 0 {
		return false
	}
	if pct >= 100 {
		return true
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%d|%d|%d", seed, from, to, seq)
	return h.Sum32()%100 < uint32(pct)
}

// delayFor draws the deterministic latency of a fired Delay rule, in
// (0, max].
func delayFor(seed int64, from, to proc.ID, seq int, max time.Duration) time.Duration {
	if max <= 0 {
		max = 10 * time.Millisecond
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "delay|%d|%d|%d|%d", seed, from, to, seq)
	return 1 + time.Duration(h.Sum64()%uint64(max))
}

// Profile is a named plan constructor, the chaos twin of
// adversary.Strategy: Build must be a pure function of (seed, env).
type Profile struct {
	ID  string
	Doc string
	// Build derives the frozen plan of one run.
	Build func(seed int64, env Env) *Plan
}

// Library returns the built-in chaos profiles.
func Library() []Profile {
	mk := func(id, doc string, rules ...Rule) Profile {
		return Profile{ID: id, Doc: doc, Build: func(seed int64, env Env) *Plan {
			return NewPlan(id, seed, env, rules...)
		}}
	}
	return []Profile{
		mk("drop", "drops 25% of payloads per link (omission: empty frames survive)",
			Rule{Kind: Drop, Pct: 25}),
		mk("delay", "delays 35% of frames by up to 10ms",
			Rule{Kind: Delay, Pct: 35, MaxDelay: 10 * time.Millisecond}),
		mk("flaky", "drops 15% of payloads and delays 25% of frames by up to 8ms",
			Rule{Kind: Drop, Pct: 15},
			Rule{Kind: Delay, Pct: 25, MaxDelay: 8 * time.Millisecond}),
		mk("dup-reorder", "duplicates 20% and reorders 20% of frames (payloads intact)",
			Rule{Kind: Duplicate, Pct: 20},
			Rule{Kind: Reorder, Pct: 20}),
		mk("corrupt", "corrupts 20% of payloads; receivers detect and void them",
			Rule{Kind: Corrupt, Pct: 20}),
		mk("partition", "partitions the mesh for the first 3 of every 8 seqs, cut set re-drawn per window",
			Rule{Kind: Partition, Period: 8, Width: 3}),
		mk("storm", "drop 10% + delay 20% (8ms) + recurring partitions (3 of every 10 seqs) — the soak default",
			Rule{Kind: Drop, Pct: 10},
			Rule{Kind: Delay, Pct: 20, MaxDelay: 8 * time.Millisecond},
			Rule{Kind: Partition, Period: 10, Width: 3}),
		mk("cut", "severs the connection at ~2% of frames (wire links only; meshes ignore Cut)",
			Rule{Kind: Cut, Pct: 2}),
	}
}

// ByID looks a built-in profile up by its ID.
func ByID(id string) (Profile, bool) {
	for _, p := range Library() {
		if p.ID == id {
			return p, true
		}
	}
	return Profile{}, false
}

// IDs lists the built-in profile IDs in library order.
func IDs() []string {
	lib := Library()
	out := make([]string, len(lib))
	for i, p := range lib {
		out[i] = p.ID
	}
	return out
}

// counters are the chaos flight-recorder instruments. All nil-safe: a nil
// recorder records nothing at zero cost, the obs contract.
type counters struct {
	dropped, delayed, duplicated, reordered, corrupted, detected *obs.Counter
}

func newCounters(rec *obs.Recorder) counters {
	return counters{
		dropped:    rec.Counter("chaos_dropped"),
		delayed:    rec.Counter("chaos_delayed"),
		duplicated: rec.Counter("chaos_duplicated"),
		reordered:  rec.Counter("chaos_reordered"),
		corrupted:  rec.Counter("chaos_corrupted"),
		detected:   rec.Counter("chaos_detected"),
	}
}

// reorderHold bounds how long a reordered frame is held when no later
// frame comes along to overtake it: a timer flush keeps the final round
// of a run from deadlocking on a withheld frame.
const reorderHold = 15 * time.Millisecond

// Wrap decorates every endpoint of a mesh with the plan's faults. The
// wrapped endpoints inject faults on the send side (where the link
// identity is known) and verify payload checksums on the receive side.
// rec may be nil.
func Wrap(eps []transport.Endpoint, plan *Plan, rec *obs.Recorder) []transport.Endpoint {
	c := newCounters(rec)
	out := make([]transport.Endpoint, len(eps))
	for i := range eps {
		out[i] = &endpoint{inner: eps[i], id: proc.ID(i), plan: plan, c: c}
	}
	return out
}

type endpoint struct {
	inner transport.Endpoint
	id    proc.ID
	plan  *Plan
	c     counters

	mu   sync.Mutex
	held map[proc.ID]heldFrame // one reorder slot per link
}

type heldFrame struct {
	f     transport.Frame
	timer *time.Timer
}

var _ transport.Endpoint = (*endpoint)(nil)

// Send implements transport.Endpoint, applying the plan's verdict for
// (link, round). Fault precedence on the payload: Drop voids it outright,
// otherwise Corrupt mangles its checksum; either way the frame itself
// travels, preserving round synchrony.
func (e *endpoint) Send(to proc.ID, f transport.Frame) error {
	faults := e.plan.Faults(e.id, to, f.Round)
	if f.Has {
		switch {
		case faults.Drop:
			f.Has, f.Payload = false, ""
			e.c.dropped.Inc()
		case faults.Corrupt:
			f.Payload = corruptSum(f.Payload)
			e.c.corrupted.Inc()
		default:
			f.Payload = sum(f.Payload)
		}
	}
	if faults.Delay > 0 {
		e.c.delayed.Inc()
		time.Sleep(faults.Delay)
	}
	if faults.Reorder {
		e.mu.Lock()
		if _, busy := e.held[to]; !busy {
			if e.held == nil {
				e.held = make(map[proc.ID]heldFrame)
			}
			e.c.reordered.Inc()
			to := to
			e.held[to] = heldFrame{f: f, timer: time.AfterFunc(reorderHold, func() { e.flush(to) })}
			e.mu.Unlock()
			return nil
		}
		e.mu.Unlock()
	}
	if err := e.inner.Send(to, f); err != nil {
		return err
	}
	// A held older frame goes out after the newer one: the reorder.
	e.flush(to)
	if faults.Duplicate {
		e.c.duplicated.Inc()
		return e.inner.Send(to, f)
	}
	return nil
}

// flush releases the held frame of a link, if any.
func (e *endpoint) flush(to proc.ID) {
	e.mu.Lock()
	h, ok := e.held[to]
	if ok {
		delete(e.held, to)
	}
	e.mu.Unlock()
	if ok {
		h.timer.Stop()
		_ = e.inner.Send(to, h.f)
	}
}

// Recv implements transport.Endpoint, verifying payload checksums: a
// mismatch voids the payload (detected corruption becomes an omission),
// deterministically per frame.
func (e *endpoint) Recv() (transport.Frame, error) {
	f, err := e.inner.Recv()
	if err != nil || !f.Has {
		return f, err
	}
	payload, ok := checkSum(f.Payload)
	if !ok {
		e.c.detected.Inc()
		f.Has, f.Payload = false, ""
		return f, nil
	}
	f.Payload = payload
	return f, nil
}

// Close implements transport.Endpoint: held frames are released first so
// a graceful shutdown never strands a reordered frame.
func (e *endpoint) Close() error {
	e.mu.Lock()
	var pending []proc.ID
	for to := range e.held {
		pending = append(pending, to)
	}
	e.mu.Unlock()
	for _, to := range pending {
		e.flush(to)
	}
	return e.inner.Close()
}

// sumPrefix marks a checksummed payload. Payloads without the prefix
// (from an unwrapped sender) pass through unverified.
const sumPrefix = "cs:"

func sum(payload string) string {
	return fmt.Sprintf("%s%08x:%s", sumPrefix, crc32.ChecksumIEEE([]byte(payload)), payload)
}

func corruptSum(payload string) string {
	return fmt.Sprintf("%s%08x:%s", sumPrefix, crc32.ChecksumIEEE([]byte(payload))^0xdeadbeef, payload)
}

func checkSum(s string) (string, bool) {
	if !strings.HasPrefix(s, sumPrefix) {
		return s, true
	}
	body := s[len(sumPrefix):]
	i := strings.IndexByte(body, ':')
	if i != 8 {
		return "", false
	}
	var want uint32
	if _, err := fmt.Sscanf(body[:8], "%08x", &want); err != nil {
		return "", false
	}
	payload := body[9:]
	return payload, crc32.ChecksumIEEE([]byte(payload)) == want
}
