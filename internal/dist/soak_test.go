package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/transport/chaosnet"
)

// serialHuntJSON is the soak oracle for hunt jobs: the Serial baseline's
// hunt report bytes.
func serialHuntJSON(t *testing.T, job *Job) []byte {
	t.Helper()
	rep, err := Serial(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := json.Marshal(rep.Hunt)
	return out
}

// joinFake dials the coordinator and handshakes as a hand-driven worker,
// returning its connection and the job it was shipped. It is called
// between Start and Run by tests that need the fake to join first, and
// the coordinator replies before it queues the join, so it returns only
// once the join is queued: otherwise a local worker can finish a short
// campaign before the fake exists.
func joinFake(t *testing.T, c *Coordinator, name string) (*Conn, *Job) {
	t.Helper()
	conn, err := Dial(c.ListenAddr(), 3, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&Message{Kind: MsgHello, Hello: &Hello{Version: ProtocolVersion, Name: name}}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv(5 * time.Second)
	if err != nil || m.Kind != MsgJob {
		t.Fatalf("handshake: %v (%+v)", err, m)
	}
	for deadline := time.Now().Add(5 * time.Second); len(c.sched.events) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("join never queued")
		}
	}
	return conn, m.Job
}

// TestSerialMatchesEngineBaselines pins Serial to the same bytes the
// test-local single-process helpers produce — the exported oracle and
// the historical one must never drift apart.
func TestSerialMatchesEngineBaselines(t *testing.T) {
	if got, want := serialHuntJSON(t, huntJob()), singleHunt(t, huntJob().Hunt); !bytes.Equal(got, want) {
		t.Errorf("Serial hunt diverged from engine baseline\ngot:  %s\nwant: %s", got, want)
	}
	rep, err := Serial(context.Background(), fuzzJob())
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantCorpus := singleFuzz(t, fuzzJob().Fuzz)
	gotRep, _ := json.Marshal(rep.Fuzz)
	gotCorpus, _ := json.Marshal(rep.Corpus)
	if !bytes.Equal(gotRep, wantRep) || !bytes.Equal(gotCorpus, wantCorpus) {
		t.Error("Serial fuzz report/corpus diverged from engine baseline")
	}
	mrep, err := Serial(context.Background(), matrixJob())
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Grid == nil || len(mrep.Grid.Cells) == 0 {
		t.Error("Serial matrix produced no grid")
	}
}

// TestDistQuarantineAfterRetryBudget is the poisoned-unit edge case: a
// worker that fails every unit must quarantine them all within the
// retry budget instead of hanging the campaign, a late result for a
// quarantined unit must be dropped, and the report must name the
// quarantined units.
func TestDistQuarantineAfterRetryBudget(t *testing.T) {
	job := huntJob()
	job.Hunt.Units = 2
	job.Hunt.Shrink = false
	c := &Coordinator{Job: job, RetryBudget: 1, HeartbeatTimeout: 5 * time.Second}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// The poisoned worker: fails every unit; after unit 0 is quarantined
	// (its second failure spends the budget of 1), it smuggles in a late
	// result for it, which the done-map dedup must drop.
	conn, _ := joinFake(t, c, "poisoned")
	go func() {
		sentLate := false
		for {
			m, err := conn.Recv(10 * time.Second)
			if err != nil || m.Kind == MsgDone {
				return
			}
			if m.Kind != MsgUnit {
				continue
			}
			if m.Unit.ID == 1 && !sentLate {
				sentLate = true
				_ = conn.Send(&Message{Kind: MsgResult, Result: &Result{
					Unit: 0, Probes: 999, Hunt: &adversary.CampaignReport{Probes: 999},
				}})
			}
			_ = conn.Send(&Message{Kind: MsgUnitFailed, Failed: &UnitFailed{Unit: m.Unit.ID, Error: "synthetic unit failure"}})
		}
	}()

	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		rep, runErr = c.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign hung on a poisoned worker — quarantine did not fire")
	}
	if runErr != nil {
		t.Fatalf("campaign failed instead of degrading: %v", runErr)
	}
	if len(rep.Quarantined) != 2 || rep.Quarantined[0] != 0 || rep.Quarantined[1] != 1 {
		t.Errorf("Quarantined = %v, want [0 1]", rep.Quarantined)
	}
	// The late result for quarantined unit 0 claimed 999 probes; a fold
	// of it would leak into the merged report.
	if rep.Hunt == nil || rep.Hunt.Probes != 0 {
		t.Errorf("late result for a quarantined unit folded: %+v", rep.Hunt)
	}
	var enc bytes.Buffer
	_ = json.NewEncoder(&enc).Encode(rep)
	if !bytes.Contains(enc.Bytes(), []byte(`"quarantined":[0,1]`)) {
		t.Errorf("report JSON does not surface the quarantine: %s", enc.String())
	}
}

// TestDistQuarantineFailsMatrixAndFuzz: a quarantined hunt unit degrades
// the report, but a grid cell or a fuzz batch cannot be left out — the
// grid and the generation fold need every one. A worker that fails every
// unit must make Run fail with the quarantine's error, not hang or
// assemble a report without the unit.
func TestDistQuarantineFailsMatrixAndFuzz(t *testing.T) {
	for _, tc := range []struct {
		job  func() *Job
		want string
	}{
		{matrixJob, "the grid cannot be assembled without it"},
		{fuzzJob, "the generation fold cannot proceed without it"},
	} {
		job := tc.job()
		c := &Coordinator{Job: job, RetryBudget: 1, HeartbeatTimeout: 5 * time.Second}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		conn, _ := joinFake(t, c, "poisoned")
		go func() {
			for {
				m, err := conn.Recv(10 * time.Second)
				if err != nil || m.Kind == MsgDone {
					return
				}
				if m.Kind == MsgUnit {
					_ = conn.Send(&Message{Kind: MsgUnitFailed, Failed: &UnitFailed{Unit: m.Unit.ID, Error: "synthetic unit failure"}})
				}
			}
		}()

		done := make(chan error, 1)
		go func() {
			_, err := c.Run()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: got %v, want an error saying %q", job.Kind, err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: campaign hung on a poisoned worker — quarantine did not fire", job.Kind)
		}
	}
}

// TestDistShortHuntResultRetried: a hunt result must cover its unit's
// seeds. A worker answering its first unit with a one-probe report used
// to have it merged — the report counted one probe for the whole unit;
// the result must cost the unit a retry, and the report must equal
// Serial's.
func TestDistShortHuntResultRetried(t *testing.T) {
	want := serialHuntJSON(t, huntJob())
	c := &Coordinator{Job: huntJob(), LocalWorkers: 1, WorkerParallelism: 2}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	conn, job := joinFake(t, c, "short")
	job.normalize()
	ex, err := newExecutor(job, context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		short := true
		for {
			m, err := conn.Recv(30 * time.Second)
			if err != nil || m.Kind != MsgUnit {
				return
			}
			res := &Result{Unit: m.Unit.ID, Probes: 1, Hunt: &adversary.CampaignReport{Probes: 1}}
			if !short {
				if res, err = ex.run(m.Unit); err != nil {
					return
				}
			}
			short = false
			if conn.Send(&Message{Kind: MsgResult, Result: res}) != nil {
				return
			}
		}
	}()

	rep, err := c.Run()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if rep.Reassigned < 1 {
		t.Errorf("the short result cost no retry (reassigned=%d)", rep.Reassigned)
	}
	got, _ := json.Marshal(rep.Hunt)
	if !bytes.Equal(got, want) {
		t.Errorf("report diverged after a short result\ngot:  %s\nwant: %s", got, want)
	}
}

// TestDistStragglerReassignedWhileAlive is the heartbeat-boundary edge
// case: a worker that heartbeats just under the timeout (so it is never
// declared dead) but sits on its unit past the unit deadline must lose
// the assignment to a healthy worker — and the report must not notice.
func TestDistStragglerReassignedWhileAlive(t *testing.T) {
	want := serialHuntJSON(t, huntJob())
	c := &Coordinator{
		Job:               huntJob(),
		LocalWorkers:      1,
		WorkerParallelism: 2,
		HeartbeatTimeout:  600 * time.Millisecond,
		UnitDeadline:      250 * time.Millisecond,
		RetryBudget:       -1, // straggles must never quarantine here
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// The straggler: joins first (so it receives the first unit), sends a
	// heartbeat every 500ms — inside the 600ms timeout, at its boundary —
	// and never returns a result.
	conn, _ := joinFake(t, c, "straggler")
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := conn.Send(&Message{Kind: MsgHeartbeat}); err != nil {
					return
				}
			case <-stop:
				return
			}
		}
	}()
	go func() {
		for {
			if _, err := conn.Recv(30 * time.Second); err != nil {
				return
			}
		}
	}()

	rep, err := c.Run()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if rep.Reassigned < 1 {
		t.Errorf("straggler kept its unit (reassigned=%d)", rep.Reassigned)
	}
	if len(rep.Quarantined) != 0 {
		t.Errorf("unlimited retry budget quarantined units: %v", rep.Quarantined)
	}
	got, _ := json.Marshal(rep.Hunt)
	if !bytes.Equal(got, want) {
		t.Errorf("report diverged after straggle reassignment\ngot:  %s\nwant: %s", got, want)
	}
}

// TestDistStrayResultDropped: a result names its unit in a field off the
// wire. One for a unit the coordinator never issued used to index the
// result slice with it (9999: index out of range; -1 likewise) and take
// the coordinator down; it must be dropped, and the report must not
// notice.
func TestDistStrayResultDropped(t *testing.T) {
	want := serialHuntJSON(t, huntJob())
	c := &Coordinator{Job: huntJob(), LocalWorkers: 1, WorkerParallelism: 2}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// The liar joins first, sends its strays and hangs up: the unit it was
	// handed meanwhile goes back to the honest worker.
	conn, _ := joinFake(t, c, "liar")
	for _, id := range []int{9999, -1} {
		if err := conn.Send(&Message{Kind: MsgResult, Result: &Result{Unit: id, Probes: 8}}); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()

	rep, err := c.Run()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if rep.Units != huntJob().Hunt.Units || len(rep.Quarantined) != 0 {
		t.Errorf("folded %d units (quarantined %v), want %d and none", rep.Units, rep.Quarantined, huntJob().Hunt.Units)
	}
	got, _ := json.Marshal(rep.Hunt)
	if !bytes.Equal(got, want) {
		t.Errorf("report diverged after stray results\ngot:  %s\nwant: %s", got, want)
	}
}

// TestDistFuzzStaleAndMalformedResults: the fuzz fold takes results one
// generation at a time, so a straggler's late duplicate from the previous
// generation is a result for a unit the current one never issued; it used
// to abort the campaign ("fuzz result for unknown unit"), as did an empty
// result for a unit ("returned 0 outcomes, want 16"). The worker here
// does honest work — it runs the real executor — and lies three times
// when generation 1 starts: it replays its generation-0 result, sends an
// empty result for a unit it does not hold, and answers its own unit
// empty once (which must cost that unit a retry, not the campaign).
func TestDistFuzzStaleAndMalformedResults(t *testing.T) {
	wantRep, wantCorpus := singleFuzz(t, fuzzJob().Fuzz)
	c := &Coordinator{Job: fuzzJob(), LocalWorkers: 1, WorkerParallelism: 1}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	conn, job := joinFake(t, c, "liar")
	job.normalize()
	ex, err := newExecutor(job, context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lied := make(chan bool, 1)
	go func() {
		var gen0 *Result
		told := false
		defer func() { lied <- told }()
		for {
			m, err := conn.Recv(30 * time.Second)
			if err != nil || m.Kind != MsgUnit {
				return
			}
			u := m.Unit
			if u.Batch.Gen == 1 && gen0 != nil && !told {
				told = true
				_ = conn.Send(&Message{Kind: MsgResult, Result: gen0})
				_ = conn.Send(&Message{Kind: MsgResult, Result: &Result{Unit: u.ID + 1}})
				_ = conn.Send(&Message{Kind: MsgResult, Result: &Result{Unit: u.ID}})
				continue
			}
			res, err := ex.run(u)
			if err != nil {
				return
			}
			if gen0 == nil {
				gen0 = res
			}
			if conn.Send(&Message{Kind: MsgResult, Result: res}) != nil {
				return
			}
		}
	}()

	rep, err := c.Run()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if !<-lied {
		t.Fatal("the fake worker never held a generation-1 unit: nothing was tested")
	}
	if rep.Reassigned < 1 {
		t.Errorf("the empty result for a held unit cost no retry (reassigned=%d)", rep.Reassigned)
	}
	gotRep, _ := json.Marshal(rep.Fuzz)
	gotCorpus, _ := json.Marshal(rep.Corpus)
	if !bytes.Equal(gotRep, wantRep) {
		t.Errorf("fuzz report diverged\ngot:  %s\nwant: %s", gotRep, wantRep)
	}
	if !bytes.Equal(gotCorpus, wantCorpus) {
		t.Error("fuzz corpus diverged")
	}
}

// TestDistWorkerJoinsMidFuzzGeneration: a worker joining while a fuzz
// generation is in flight picks up queued batches without perturbing
// the report or corpus bytes.
func TestDistWorkerJoinsMidFuzzGeneration(t *testing.T) {
	// A budget big enough that the single local worker is still inside a
	// generation when the second worker joins: at stream 2's probe rate
	// 1024 probes were over before the joiner's 40 ms had passed on an
	// idle box, and it dialed a coordinator that had already gone.
	job := func() *Job {
		j := fuzzJob()
		j.Fuzz.Budget = 8192
		return j
	}
	wantRep, wantCorpus := singleFuzz(t, job().Fuzz)
	c := &Coordinator{Job: job(), LocalWorkers: 1, WorkerParallelism: 1}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	joined := make(chan error, 1)
	go func() {
		time.Sleep(40 * time.Millisecond) // land mid-generation
		w := &Worker{Addr: c.ListenAddr(), Name: "late-joiner", Parallelism: 2}
		joined <- w.Run()
	}()
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-joined; err != nil {
		t.Fatalf("late joiner: %v", err)
	}
	gotRep, _ := json.Marshal(rep.Fuzz)
	gotCorpus, _ := json.Marshal(rep.Corpus)
	if !bytes.Equal(gotRep, wantRep) {
		t.Errorf("fuzz report diverged with a mid-generation joiner\ngot:  %s\nwant: %s", gotRep, wantRep)
	}
	if !bytes.Equal(gotCorpus, wantCorpus) {
		t.Error("fuzz corpus diverged with a mid-generation joiner")
	}
}

// soakPlan builds one worker's wire-chaos plan: drop + delay +
// periodic partition everywhere, plus — for kill victims — a cut that
// severs the connection at a fixed sequence point, which is the
// in-process analogue of a scheduled worker kill.
//
// The windows matter: chaos seqs reset at every reconnect, so a fault
// pinned on the first couple of seqs recurs at the same point of EVERY
// incarnation. The partition therefore starts at seq 4 (never eating a
// fresh session's first exchanges) and the cut at seq 2 — late enough
// that each victim incarnation can round-trip at least one unit before
// dying, early enough that it dies on the next assignment wave.
func soakPlan(slot int, victim bool, seed int64) *chaosnet.Plan {
	rules := []chaosnet.Rule{
		{Kind: chaosnet.Drop, Pct: 8},
		{Kind: chaosnet.Delay, Pct: 20, MaxDelay: 3 * time.Millisecond},
		{Kind: chaosnet.Partition, Period: 32, Width: 2, Lo: 4},
	}
	if victim {
		rules = append(rules, chaosnet.Rule{Kind: chaosnet.Cut, Pct: 100, Lo: 2})
	}
	return chaosnet.NewPlan(fmt.Sprintf("soak-%d", slot), seed+int64(slot), chaosnet.Env{}, rules...)
}

// runSoak drives one kill-resume-under-chaos campaign: `workers` worker
// slots with chaotic coordinator links, the first two slots carrying cut
// rules that kill them deterministically; each slot respawns its worker
// (incarnation + 1) until the campaign completes. The clean slots join
// only once each victim has died once, which makes "at least two kills" a
// property of the schedule: started together, two clean slots can finish
// a short campaign before both victims reach their cut. Returns the
// report and the number of kills (worker deaths followed by a respawn)
// observed.
func runSoak(t *testing.T, job *Job, workers int, seed int64) (*Report, int) {
	t.Helper()
	c := &Coordinator{
		Job:              job,
		HeartbeatTimeout: 2 * time.Second,
		UnitDeadline:     400 * time.Millisecond,
		RetryBudget:      -1, // chaos losses must degrade to retries, never quarantine
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	campaignDone := make(chan struct{})
	victimsDied := make(chan struct{})
	var kills, firstDeaths atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < workers; slot++ {
		slot, victim := slot, slot < 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !victim {
				select {
				case <-victimsDied:
				case <-campaignDone:
					return
				}
			}
			for incarnation := 0; incarnation < 100; incarnation++ {
				w := &Worker{
					Addr:        c.ListenAddr(),
					Name:        fmt.Sprintf("soak-%d-%d", slot, incarnation),
					Parallelism: 2,
					Chaos:       soakPlan(slot, victim, seed),
					ChaosNode:   slot + 1, // 63 is the coordinator's end of the link

				}
				err := w.Run()
				if err == nil {
					return // campaign completed
				}
				select {
				case <-campaignDone:
					return
				default:
				}
				kills.Add(1)
				if victim && incarnation == 0 && firstDeaths.Add(1) == 2 {
					close(victimsDied)
				}
			}
			t.Error("soak worker exceeded 100 incarnations — kill loop did not converge")
			c.Drain() // fail fast rather than hang the coordinator forever
		}()
	}
	rep, err := c.Run()
	close(campaignDone)
	wg.Wait()
	if err != nil {
		t.Fatalf("soak coordinator (%d workers): %v", workers, err)
	}
	return rep, int(kills.Load())
}

// TestSoakHuntKillResumeUnderChaos is the PR's acceptance gate for hunt:
// at 2 and 4 workers, with at least two deterministic kills and a
// drop + delay + partition wire profile, the merged report must be
// byte-identical to the serial baseline and nothing may be quarantined.
func TestSoakHuntKillResumeUnderChaos(t *testing.T) {
	// 16 units (vs huntJob's 8): with 4 workers at parallelism 2 the first
	// wave assigns 8 at once, and only a second wave pushes the victims'
	// links past the cut seq — fewer units would let a 4-worker run finish
	// without a single kill.
	soakHunt := func() *Job {
		j := huntJob()
		j.Hunt.Units = 16
		return j
	}
	want := serialHuntJSON(t, soakHunt())
	for _, workers := range []int{2, 4} {
		rep, kills := runSoak(t, soakHunt(), workers, 9000)
		if kills < 2 {
			t.Errorf("%d workers: %d kills, want >= 2 — the cut rules did not fire", workers, kills)
		}
		if len(rep.Quarantined) != 0 {
			t.Errorf("%d workers: quarantined %v under unlimited retries", workers, rep.Quarantined)
		}
		got, _ := json.Marshal(rep.Hunt)
		if !bytes.Equal(got, want) {
			t.Errorf("%d workers: hunt report diverged under churn+chaos\ngot:  %s\nwant: %s", workers, got, want)
		}
	}
}

// TestSoakFuzzKillResumeUnderChaos: the same gate for fuzzing — report
// AND corpus bytes survive kills, reconnects, and wire chaos.
func TestSoakFuzzKillResumeUnderChaos(t *testing.T) {
	soakFuzz := func() *Job {
		j := fuzzJob()
		// Enough budget that every worker sees several batches per
		// generation: at 4 workers a smaller run drains before the second
		// victim's link reaches the cut seq, and no kill ever fires.
		j.Fuzz.Budget = 512
		return j
	}
	wantRep, wantCorpus := singleFuzz(t, soakFuzz().Fuzz)
	for _, workers := range []int{2, 4} {
		rep, kills := runSoak(t, soakFuzz(), workers, 9100)
		if kills < 2 {
			t.Errorf("%d workers: %d kills, want >= 2 — the cut rules did not fire", workers, kills)
		}
		gotRep, _ := json.Marshal(rep.Fuzz)
		gotCorpus, _ := json.Marshal(rep.Corpus)
		if !bytes.Equal(gotRep, wantRep) {
			t.Errorf("%d workers: fuzz report diverged under churn+chaos\ngot:  %s\nwant: %s", workers, gotRep, wantRep)
		}
		if !bytes.Equal(gotCorpus, wantCorpus) {
			t.Errorf("%d workers: fuzz corpus diverged under churn+chaos", workers)
		}
	}
}

// TestDistDrainCheckpointsAndResumes: Drain mid-campaign returns
// ErrDrained with a saved checkpoint; a fresh coordinator resumes it to
// the byte-identical report — the SIGTERM-triggered path of baexp coord.
func TestDistDrainCheckpointsAndResumes(t *testing.T) {
	want := serialHuntJSON(t, huntJob())
	path := t.TempDir() + "/checkpoint.json"

	c1 := &Coordinator{Job: huntJob(), LocalWorkers: 2, WorkerParallelism: 2, CheckpointPath: path}
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(120 * time.Millisecond)
		c1.Drain()
	}()
	_, err := c1.Run()
	if err != nil && !errors.Is(err, ErrDrained) {
		t.Fatalf("drained run: got %v, want ErrDrained or clean completion", err)
	}
	drained := errors.Is(err, ErrDrained)

	c2 := &Coordinator{Job: huntJob(), LocalWorkers: 2, WorkerParallelism: 2, CheckpointPath: path}
	rep, err := c2.Run()
	if err != nil {
		t.Fatalf("resume after drain: %v", err)
	}
	if drained && !rep.Resumed {
		t.Error("resumed run did not load the drained checkpoint")
	}
	got, _ := json.Marshal(rep.Hunt)
	if !bytes.Equal(got, want) {
		t.Errorf("report diverged across drain+resume\ngot:  %s\nwant: %s", got, want)
	}
}
