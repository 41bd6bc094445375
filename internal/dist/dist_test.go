package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all" // register every protocol
	"expensive/internal/catalog/matrix"
)

// huntJob is the canonical distributed hunt: FloodSet at t = n-1 under
// targeted withholding, a range wide enough to span several units and
// violating seeds to exercise the merge's violation paths.
func huntJob() *Job {
	return &Job{Kind: "hunt", Hunt: &HuntJob{
		Protocol: "floodset",
		Strategy: "targeted-withhold",
		N:        4,
		T:        3,
		Seeds:    adversary.SeedRange{From: 0, To: 64},
		Units:    8,
		Shrink:   true,

		MaxViolations: 3,
	}}
}

func fuzzJob() *Job {
	return &Job{Kind: "fuzz", Fuzz: &FuzzJob{
		Protocol:     "floodset",
		SeedStrategy: "random-send-omission",
		Bias:         40,
		N:            4,
		T:            3,
		Budget:       256,
		Batch:        16,
		Shrink:       true,

		MaxViolations: 2,
	}}
}

func matrixJob() *Job {
	return &Job{Kind: "matrix", Matrix: &MatrixJob{
		Protocols:  []string{"floodset", "phase-king"},
		Strategies: []string{"silent-crash", "targeted-withhold"},
		Sizes:      []matrix.Size{{N: 4, T: 1}, {N: 8, T: 2}},
		Bias:       40,
		Seeds:      adversary.SeedRange{From: 0, To: 8},

		MaxViolations: 1,
	}}
}

// singleHunt is the hunt oracle: the campaign built straight from
// matrix.CampaignFor — not through the Job constructors every dist route
// shares — so the byte-identity tests compare two routes.
func singleHunt(t *testing.T, j *HuntJob) []byte {
	t.Helper()
	spec, err := catalog.Get(j.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	strat, ok := adversary.FromLibrary(j.Strategy, j.Bias)
	if !ok {
		t.Fatalf("unknown strategy %q", j.Strategy)
	}
	c, err := matrix.CampaignFor(spec, catalog.DefaultParams(j.N, j.T), strat, j.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	c.Shrink = j.Shrink
	c.MaxViolations = j.MaxViolations
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// singleFuzz is the fuzz oracle, built straight from matrix.FuzzerFor
// like singleHunt; it returns report and corpus JSON.
func singleFuzz(t *testing.T, j *FuzzJob) ([]byte, []byte) {
	t.Helper()
	spec, err := catalog.Get(j.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	seed, ok := adversary.FromLibrary(j.SeedStrategy, j.Bias)
	if !ok {
		t.Fatalf("unknown strategy %q", j.SeedStrategy)
	}
	f, err := matrix.FuzzerFor(spec, catalog.DefaultParams(j.N, j.T), seed, j.Budget)
	if err != nil {
		t.Fatal(err)
	}
	f.SeedProbes = j.SeedProbes
	f.GenSize = j.GenSize
	f.FuzzSeed = j.FuzzSeed
	f.Horizon = j.Horizon
	f.Shrink = j.Shrink
	f.MaxViolations = j.MaxViolations
	f.StopOnViolation = j.StopOnViolation
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	repJSON, _ := json.Marshal(rep)
	corpusJSON, _ := json.Marshal(f.Corpus)
	return repJSON, corpusJSON
}

// coordinate runs a job through a coordinator with n local workers.
func coordinate(t *testing.T, job *Job, workers int, tune func(*Coordinator)) *Report {
	t.Helper()
	c := &Coordinator{Job: job, LocalWorkers: workers, WorkerParallelism: 2}
	if tune != nil {
		tune(c)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("coordinator (%d workers): %v", workers, err)
	}
	return rep
}

// TestDistHuntByteIdentical is the subsystem's core acceptance: the
// merged hunt report is byte-identical to the single-process run at
// every worker count.
func TestDistHuntByteIdentical(t *testing.T) {
	want := singleHunt(t, huntJob().Hunt)
	for _, n := range []int{1, 2, 4} {
		rep := coordinate(t, huntJob(), n, nil)
		got, _ := json.Marshal(rep.Hunt)
		if !bytes.Equal(got, want) {
			t.Errorf("%d workers: merged hunt report diverged\ngot:  %s\nwant: %s", n, got, want)
		}
	}
}

// TestDistFuzzByteIdentical: distributed fuzzing reproduces the local
// report and corpus bytes at every worker count.
func TestDistFuzzByteIdentical(t *testing.T) {
	wantRep, wantCorpus := singleFuzz(t, fuzzJob().Fuzz)
	for _, n := range []int{1, 2, 4} {
		rep := coordinate(t, fuzzJob(), n, nil)
		gotRep, _ := json.Marshal(rep.Fuzz)
		gotCorpus, _ := json.Marshal(rep.Corpus)
		if !bytes.Equal(gotRep, wantRep) {
			t.Errorf("%d workers: fuzz report diverged\ngot:  %s\nwant: %s", n, gotRep, wantRep)
		}
		if !bytes.Equal(gotCorpus, wantCorpus) {
			t.Errorf("%d workers: fuzz corpus diverged from the local run's", n)
		}
	}
}

// TestDistMatrixByteIdentical: the assembled grid matches matrix.Run.
func TestDistMatrixByteIdentical(t *testing.T) {
	j := matrixJob().Matrix
	specs := make([]catalog.Spec, len(j.Protocols))
	for i, id := range j.Protocols {
		s, err := catalog.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	named := make([]adversary.Named, len(j.Strategies))
	for i, id := range j.Strategies {
		strat, ok := adversary.FromLibrary(id, j.Bias)
		if !ok {
			t.Fatalf("unknown strategy %q", id)
		}
		named[i] = adversary.Named{ID: id, Strategy: strat}
	}
	m := &matrix.Matrix{
		Protocols:     specs,
		Strategies:    named,
		Sizes:         j.Sizes,
		Seeds:         j.Seeds,
		MaxViolations: j.MaxViolations,
	}
	grid, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(grid)
	for _, n := range []int{1, 4} {
		rep := coordinate(t, matrixJob(), n, nil)
		got, _ := json.Marshal(rep.Grid)
		if !bytes.Equal(got, want) {
			t.Errorf("%d workers: grid diverged\ngot:  %s\nwant: %s", n, got, want)
		}
	}
}

// TestDistHuntKillResume kills the coordinator after three units (the
// checkpoint survives), resumes from the checkpoint, and requires the
// final report byte-identical to an uninterrupted run.
func TestDistHuntKillResume(t *testing.T) {
	want := singleHunt(t, huntJob().Hunt)
	path := filepath.Join(t.TempDir(), "checkpoint.json")

	c1 := &Coordinator{Job: huntJob(), LocalWorkers: 2, WorkerParallelism: 2, CheckpointPath: path, stopAfterUnits: 3}
	if _, err := c1.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stop hook: got %v, want ErrStopped", err)
	}

	// The same checkpoint under another stream version is refused, with
	// an error naming both versions (a checkpoint written before the field
	// existed reads as version 1).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	job := huntJob()
	job.normalize()
	for _, tc := range []struct {
		name     string
		field    any // nil removes stream_version
		recorded int // 0 = accepted
	}{
		{"missing", nil, 1},
		{"older", 1, 1},
		{"newer", adversary.StreamVersion + 1, adversary.StreamVersion + 1},
		{"current", adversary.StreamVersion, 0},
	} {
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if doc["stream_version"] != float64(adversary.StreamVersion) {
			t.Fatalf("saved checkpoint carries stream_version %v, want %d", doc["stream_version"], adversary.StreamVersion)
		}
		delete(doc, "stream_version")
		if tc.field != nil {
			doc["stream_version"] = tc.field
		}
		edited, _ := json.Marshal(doc)
		editedPath := filepath.Join(t.TempDir(), tc.name+".json")
		if err := os.WriteFile(editedPath, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := loadCheckpoint(editedPath, job)
		if tc.recorded == 0 {
			if err != nil || cp == nil || len(cp.Units) == 0 {
				t.Errorf("%s: checkpoint of the current stream not loaded: %v", tc.name, err)
			}
			continue
		}
		for _, want := range []string{
			fmt.Sprintf("stream_version %d,", tc.recorded),
			fmt.Sprintf("stream_version %d:", adversary.StreamVersion),
		} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: load error %v does not name %q", tc.name, err, want)
			}
		}
	}

	c2 := &Coordinator{Job: huntJob(), LocalWorkers: 2, WorkerParallelism: 2, CheckpointPath: path}
	rep, err := c2.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !rep.Resumed {
		t.Error("resumed run did not load the checkpoint")
	}
	got, _ := json.Marshal(rep.Hunt)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed hunt report diverged\ngot:  %s\nwant: %s", got, want)
	}
}

// TestDistFuzzKillResume: same contract for fuzzing — the corpus and
// report survive a mid-campaign kill byte-for-byte.
func TestDistFuzzKillResume(t *testing.T) {
	wantRep, wantCorpus := singleFuzz(t, fuzzJob().Fuzz)
	path := filepath.Join(t.TempDir(), "checkpoint.json")

	c1 := &Coordinator{Job: fuzzJob(), LocalWorkers: 2, WorkerParallelism: 2, CheckpointPath: path, stopAfterUnits: 2}
	if _, err := c1.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stop hook: got %v, want ErrStopped", err)
	}

	c2 := &Coordinator{Job: fuzzJob(), LocalWorkers: 2, WorkerParallelism: 2, CheckpointPath: path}
	rep, err := c2.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !rep.Resumed {
		t.Error("resumed run did not load the checkpoint")
	}
	gotRep, _ := json.Marshal(rep.Fuzz)
	gotCorpus, _ := json.Marshal(rep.Corpus)
	if !bytes.Equal(gotRep, wantRep) {
		t.Errorf("resumed fuzz report diverged\ngot:  %s\nwant: %s", gotRep, wantRep)
	}
	if !bytes.Equal(gotCorpus, wantCorpus) {
		t.Error("resumed fuzz corpus diverged from the uninterrupted run's")
	}
}

// TestCheckpointVersionRefused: a fuzz checkpoint of format version 1 kept
// its histograms outside the report, so resuming one would drop every
// probe folded before it. A real checkpoint relabelled "version": 1 is
// refused by loadCheckpoint, and so by a coordinator before it schedules
// anything; the same bytes under the current version load.
func TestCheckpointVersionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	c1 := &Coordinator{Job: fuzzJob(), LocalWorkers: 2, WorkerParallelism: 2, CheckpointPath: path, stopAfterUnits: 2}
	if _, err := c1.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stop hook: got %v, want ErrStopped", err)
	}
	job := fuzzJob()
	job.normalize()
	if cp, err := loadCheckpoint(path, job); err != nil || cp == nil || cp.Fuzz == nil {
		t.Fatalf("checkpoint of the current version not loaded: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	current := []byte(fmt.Sprintf(`"version": %d`, checkpointVersion))
	old := bytes.Replace(raw, current, []byte(`"version": 1`), 1)
	if bytes.Equal(old, raw) {
		t.Fatalf("saved checkpoint does not carry %s", current)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("has version 1, want %d", checkpointVersion)
	if _, err := loadCheckpoint(path, job); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("load error %v does not say %q", err, want)
	}
	c2 := &Coordinator{Job: fuzzJob(), LocalWorkers: 2, WorkerParallelism: 2, CheckpointPath: path}
	if _, err := c2.Run(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("coordinator resumed a version-1 checkpoint: %v", err)
	}
}

// TestDistReassignsDeadWorkerUnits connects a worker that accepts a unit
// and then goes silent: the coordinator must declare it dead after the
// heartbeat timeout, reassign its unit to the healthy worker, and still
// produce the byte-identical report.
func TestDistReassignsDeadWorkerUnits(t *testing.T) {
	want := singleHunt(t, huntJob().Hunt)
	c := &Coordinator{Job: huntJob(), LocalWorkers: 1, WorkerParallelism: 2, HeartbeatTimeout: 300 * time.Millisecond}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// The stalled worker: a valid hello, then silence. It joins before
	// any local worker exists, so the first unit lands on it.
	stalled, err := Dial(c.ListenAddr(), 3, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := stalled.Send(&Message{Kind: MsgHello, Hello: &Hello{Version: ProtocolVersion, Name: "stalled"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := stalled.Recv(5 * time.Second); err != nil { // the job
		t.Fatal(err)
	}
	// The handshake ships the job a moment before it queues the join: wait
	// for the join, or a fast local worker finishes the campaign first.
	for deadline := time.Now().Add(5 * time.Second); len(c.sched.events) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled worker's join was never queued")
		}
	}

	rep, err := c.Run()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if rep.Reassigned < 1 {
		t.Errorf("no unit was reassigned (reassigned=%d, workers=%d)", rep.Reassigned, rep.Workers)
	}
	got, _ := json.Marshal(rep.Hunt)
	if !bytes.Equal(got, want) {
		t.Errorf("report diverged after reassignment\ngot:  %s\nwant: %s", got, want)
	}
}

// TestDistJobValidation rejects malformed jobs before any socket work.
// build constructs the engine, so a job only an engine would refuse — a
// size outside the protocol's resilience condition — is rejected at
// every entry point, where it used to reach the workers and hang the
// coordinator waiting for them.
func TestDistJobValidation(t *testing.T) {
	seeds := adversary.SeedRange{From: 0, To: 8}
	bad := []*Job{
		nil,
		{},
		{Kind: "hunt"},
		{Kind: "fuzz", Hunt: huntJob().Hunt},
		{Kind: "hunt", Hunt: &HuntJob{Protocol: "no-such-protocol", Strategy: "chaos", N: 4, T: 1, Seeds: seeds}},
		{Kind: "hunt", Hunt: &HuntJob{Protocol: "floodset", Strategy: "no-such-strategy", N: 4, T: 1, Seeds: seeds}},
		{Kind: "hunt", Hunt: &HuntJob{Protocol: "floodset", Strategy: "chaos", N: 4, T: 1, Seeds: adversary.SeedRange{From: 8, To: 8}}},
		{Kind: "fuzz", Fuzz: &FuzzJob{Protocol: "floodset", SeedStrategy: "chaos", N: 4, T: 3}},
		{Kind: "matrix", Matrix: &MatrixJob{}},
		{Kind: "matrix", Matrix: &MatrixJob{Protocols: []string{"floodset"}, Strategies: []string{"chaos"}, Sizes: []matrix.Size{{N: 3, T: 0}}, Seeds: seeds}},
	}
	for i, j := range bad {
		if _, err := j.build(); err == nil {
			t.Errorf("job %d validated; want error", i)
		}
	}

	// A negative size is refused, not read as "unset" — before or after
	// normalize, which is the order the coordinator and the workers use.
	for _, tc := range []struct {
		job  func() *Job
		want string
		set  func(*Job)
	}{
		{huntJob, "hunt job: units must be >= 0, got -3", func(j *Job) { j.Hunt.Units = -3 }},
		{huntJob, "hunt job: max violations must be >= 0, got -1", func(j *Job) { j.Hunt.MaxViolations = -1 }},
		{fuzzJob, "fuzz job: seed probes must be >= 0, got -2", func(j *Job) { j.Fuzz.SeedProbes = -2 }},
		{fuzzJob, "fuzz job: generation size must be >= 0, got -5", func(j *Job) { j.Fuzz.GenSize = -5 }},
		{fuzzJob, "fuzz job: batch must be >= 0, got -1", func(j *Job) { j.Fuzz.Batch = -1 }},
		{fuzzJob, "fuzz job: horizon must be >= 0, got -4", func(j *Job) { j.Fuzz.Horizon = -4 }},
		{fuzzJob, "fuzz job: max violations must be >= 0, got -1", func(j *Job) { j.Fuzz.MaxViolations = -1 }},
		{matrixJob, "matrix job: max violations must be >= 0, got -1", func(j *Job) { j.Matrix.MaxViolations = -1 }},
	} {
		j := tc.job()
		tc.set(j)
		j.normalize()
		if _, err := j.build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got %v, want %q", err, tc.want)
		}
	}
	good := huntJob()
	good.normalize()
	if _, err := good.build(); err != nil {
		t.Errorf("good job rejected: %v", err)
	}

	for _, j := range []*Job{
		{Kind: "hunt", Hunt: &HuntJob{Protocol: "phase-king", Strategy: "chaos", N: 4, T: 1, Seeds: seeds}},
		{Kind: "fuzz", Fuzz: &FuzzJob{Protocol: "phase-king", SeedStrategy: "chaos", N: 4, T: 1, Budget: 32}},
	} {
		_, buildErr := j.build()
		_, serialErr := Serial(context.Background(), j)
		_, execErr := newExecutor(j, context.Background(), 1)
		c := &Coordinator{Job: j}
		startErr := c.Start()
		c.shutdown()
		for route, err := range map[string]error{"build": buildErr, "Serial": serialErr, "newExecutor": execErr, "Coordinator.Start": startErr} {
			if err == nil || !strings.Contains(err.Error(), "n > 4t") {
				t.Errorf("%s job outside the resilience condition, %s: got %v, want the n > 4t refusal", j.Kind, route, err)
			}
		}
	}
}

// TestCellRefOutOfRange: a cell reference is three indices off the wire;
// one outside the job's headers on either side is the unit's error, not
// a worker panic.
func TestCellRefOutOfRange(t *testing.T) {
	ex, err := newExecutor(matrixJob(), context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []CellRef{
		{Protocol: 2}, {Strategy: 2}, {Size: 2},
		{Protocol: -1}, {Strategy: -1}, {Size: -1},
	} {
		ref := ref
		if _, err := ex.run(&Unit{ID: 7, Cell: &ref}); err == nil || !strings.Contains(err.Error(), "cell reference out of range") {
			t.Errorf("cell %+v: got %v, want the out-of-range error", ref, err)
		}
	}
	if _, err := ex.run(&Unit{ID: 0, Cell: &CellRef{Protocol: 1, Strategy: 1, Size: 1}}); err != nil {
		t.Errorf("last in-range cell refused: %v", err)
	}
}

// TestFuzzBatchOutOfRange: a fuzz batch's Start, Count and candidate list
// come off the wire like a cell reference; a batch that does not fit them
// (or, for a seed batch, the job's generation 0) is the unit's error, not
// a panic inside a pool goroutine that takes the worker process with it.
func TestFuzzBatchOutOfRange(t *testing.T) {
	ex, err := newExecutor(fuzzJob(), context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := ex.prober.SeedCount()
	one, err := ex.run(&Unit{ID: 0, Batch: &FuzzBatch{Seed: true, Start: seeds - 1, Count: 1}})
	if err != nil || len(one.Fuzz) != 1 || one.Fuzz[0].Cand == nil {
		t.Fatalf("last in-range seed probe refused: %v", err)
	}
	cands := []fuzz.Candidate{*one.Fuzz[0].Cand}
	for _, tc := range []struct {
		name  string
		batch FuzzBatch
	}{
		{"negative count", FuzzBatch{Gen: 1, Count: -1, Candidates: cands}},
		{"negative start", FuzzBatch{Gen: 1, Start: -1, Count: 1, Candidates: cands}},
		{"count beyond candidates", FuzzBatch{Gen: 1, Count: 2, Candidates: cands}},
		{"seed batch beyond the seed-probe count", FuzzBatch{Seed: true, Start: seeds - 1, Count: 2}},
		{"seed batch with negative start", FuzzBatch{Seed: true, Start: -1, Count: 1}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ex.run(&Unit{ID: 7, Batch: &tc.batch}); err == nil || !strings.Contains(err.Error(), "batch out of range") {
				t.Errorf("got %v, want the out-of-range error", err)
			}
		})
	}
	if _, err := ex.run(&Unit{ID: 1, Batch: &FuzzBatch{Gen: 1, Count: 1, Candidates: cands}}); err != nil {
		t.Errorf("in-range mutant batch refused: %v", err)
	}
}

// TestStrategyFor: the one strategy resolver resolves every library ID
// and rejects an unknown one with the available IDs in the message.
func TestStrategyFor(t *testing.T) {
	for _, id := range adversary.LibraryIDs() {
		s, err := strategyFor(id, 40)
		if err != nil {
			t.Fatalf("strategyFor(%q): %v", id, err)
		}
		if s.ID != id || s.Strategy.Build == nil {
			t.Errorf("strategyFor(%q) = %+v: want the ID and a strategy with Build", id, s)
		}
	}
	_, err := strategyFor("nope", 40)
	if err == nil {
		t.Fatal("strategyFor(nope): expected error")
	}
	if !strings.Contains(err.Error(), "targeted-withhold") {
		t.Errorf("error %q does not list the available strategies", err)
	}
}

// TestHandshakeAfterShutdownReleasesWorker: a worker whose handshake
// completes as the campaign ends — the job already in its hands, its join
// never seen by the event loop — must still be told done. It used to be
// left on an open connection, so a forked `coord -workers N` on a short
// campaign, and TestDistWorkerJoinsMidFuzzGeneration about one run in
// twenty, waited for it forever.
func TestHandshakeAfterShutdownReleasesWorker(t *testing.T) {
	job := huntJob()
	job.normalize()
	s := newScheduler(context.Background(), job, time.Second, 0, 3)
	s.shutdown()
	coordSide, workerSide := net.Pipe()
	go s.handshake(NewConn(coordSide))
	w := NewConn(workerSide)
	defer w.Close()
	if err := w.Send(&Message{Kind: MsgHello, Hello: &Hello{Version: ProtocolVersion, Name: "late"}}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []MsgKind{MsgJob, MsgDone} {
		m, err := w.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("waiting for %s: %v", want, err)
		}
		if m.Kind != want {
			t.Fatalf("got %s, want %s", m.Kind, want)
		}
	}
}

// TestCoordinatorRunReapsLocalWorkers: the local workers are the
// coordinator's, so none outlives Run — not even when the job ends before
// a worker's first dial, as on a resume from a checkpoint that is already
// complete. Run used to return without them; one that found the listener
// closed sat in the dial's backoff for seconds.
func TestCoordinatorRunReapsLocalWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	if _, err := (&Coordinator{Job: huntJob(), LocalWorkers: 1, CheckpointPath: path}).Run(); err != nil {
		t.Fatal(err)
	}
	stacks := make([]byte, 1<<20)
	for i := 0; i < 20; i++ {
		rep, err := (&Coordinator{Job: huntJob(), LocalWorkers: 4, CheckpointPath: path}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Resumed || rep.Units != 0 {
			t.Fatalf("resume of a complete checkpoint ran %d units (resumed %v)", rep.Units, rep.Resumed)
		}
		for _, g := range strings.Split(string(stacks[:runtime.Stack(stacks, true)]), "\n\n") {
			// Inside Worker.Run, not merely created by Coordinator.Run: a
			// worker that has returned may still be unwinding its goroutine.
			if strings.Contains(g, "dist.(*Worker).Run") {
				t.Fatalf("run %d: a local worker is still running after Coordinator.Run returned:\n%s", i, g)
			}
		}
	}
}
