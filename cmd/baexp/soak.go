package main

// `baexp soak` is the chaos/churn acceptance harness: it runs one
// campaign twice — once serially in-process (the oracle), once sharded
// over worker processes whose coordinator links run under a chaosnet
// profile while a churn schedule SIGKILLs and respawns them — and
// demands the two reports be byte-identical. `-kind smr` instead soaks
// the replicated log: phase-king slots over a chaosnet-wrapped mesh with
// the online safety and liveness monitors armed. Exit status is the
// verdict; the last line is "SOAK PASS" or the failure.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"expensive/internal/catalog"
	"expensive/internal/dist"
	"expensive/internal/dist/churn"
	"expensive/internal/obs"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/smr"
	"expensive/internal/transport"
	"expensive/internal/transport/chaosnet"
	"expensive/internal/transport/memnet"
)

func runSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	kind := fs.String("kind", "hunt", "what to soak: hunt|fuzz|matrix (dist campaign vs serial oracle; unset job flags take the kind's defaults, as in baexp coord) or smr (replicated log)")
	workers := fs.Int("workers", 2, "worker processes (dist kinds)")
	churnSpec := fs.String("churn", "", `kill schedule "AFTER:SLOT,..." (e.g. "400ms:0,900ms:1"); killed workers respawn`)
	chaosProfile := fs.String("chaos", "", "chaosnet profile on every worker link ("+strings.Join(chaosnet.IDs(), "|")+"; empty = clean wire)")
	chaosSeed := fs.Int64("chaos-seed", 1, "base chaos seed; worker slot i uses seed+i")
	duration := fs.Duration("duration", 30*time.Second, "deadline for dist kinds (overrun = FAIL); slot-commit horizon for smr")
	hb := fs.Duration("hb", 2*time.Second, "heartbeat timeout before a silent worker is declared dead")
	unitDeadline := fs.Duration("unit-deadline", 2*time.Second, "per-unit deadline before a straggler's unit is reassigned")
	retryBudget := fs.Int("retry-budget", -1, "reassignments per unit before quarantine (negative = unlimited: chaos losses must retry, not degrade)")
	reconnect := fs.Int("reconnect", 8, "worker reconnect attempts after a lost coordinator link")
	parallel := fs.Int("parallel", 2, "probe worker count inside each worker process")
	jf := addJobFlags(fs, "hunt")
	tf := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosProfile != "" {
		p, ok := chaosnet.ByID(*chaosProfile)
		if !ok {
			return fmt.Errorf("unknown chaos profile %q (have %s)", *chaosProfile, strings.Join(chaosnet.IDs(), ", "))
		}
		// A profile whose faults the soaked link cannot inject would run
		// clean and still print SOAK PASS: a worker's coordinator link
		// cannot duplicate, reorder or corrupt, and a mesh node has no
		// reconnect path to cut.
		refused, link := []chaosnet.Kind{chaosnet.Duplicate, chaosnet.Reorder, chaosnet.Corrupt}, "a worker's coordinator link"
		if *kind == "smr" {
			refused, link = []chaosnet.Kind{chaosnet.Cut}, "the replicated log's mesh"
		}
		plan := p.Build(*chaosSeed, chaosnet.Env{})
		for _, k := range refused {
			if plan.Uses(k) {
				return fmt.Errorf("soak -kind %s: chaos profile %q uses %s, which %s cannot inject", *kind, p.ID, k, link)
			}
		}
	}
	tel, err := tf.open()
	if err != nil {
		return err
	}
	defer tel.finish() //nolint:errcheck // surfaced by the explicit call below

	applyJobDefaults(fs, *kind)
	if *kind == "smr" {
		if err := soakSMR(tel.ctx, jf.n, jf.t, *chaosProfile, *chaosSeed, *duration); err != nil {
			return err
		}
		return tel.finish()
	}

	job, err := buildJob(*kind, jf)
	if err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("soak needs at least one worker, got %d", *workers)
	}
	schedule, err := churn.Parse(*churnSpec)
	if err != nil {
		return err
	}

	// The oracle first: the whole point is comparing against it.
	serial, err := dist.Serial(tel.ctx, job)
	if err != nil {
		return fmt.Errorf("serial oracle: %w", err)
	}
	wantReport, wantCorpus := soakBytes(serial)

	c := &dist.Coordinator{
		Job:              job,
		HeartbeatTimeout: *hb,
		UnitDeadline:     *unitDeadline,
		RetryBudget:      *retryBudget,
		Ctx:              tel.ctx,
	}
	if err := c.Start(); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	h := &churn.Harness{
		Workers:  *workers,
		Schedule: schedule,
		Ctx:      tel.ctx,
		Spawn: func(slot, incarnation int) (*exec.Cmd, error) {
			wargs := []string{"worker",
				"-coord", c.ListenAddr(),
				"-name", fmt.Sprintf("soak-%d-%d", slot, incarnation),
				"-parallel", strconv.Itoa(*parallel),
				"-reconnect", strconv.Itoa(*reconnect),
			}
			if *chaosProfile != "" {
				wargs = append(wargs,
					"-chaos", *chaosProfile,
					"-chaos-seed", strconv.FormatInt(*chaosSeed+int64(slot), 10),
					"-chaos-node", strconv.Itoa(slot+1),
				)
			}
			cmd := exec.Command(exe, wargs...)
			cmd.Stderr = os.Stderr
			return cmd, nil
		},
	}
	if err := h.Start(); err != nil {
		return err
	}
	defer h.Stop()

	type outcome struct {
		rep *dist.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := c.Run()
		done <- outcome{rep, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(*duration):
		c.Drain() // unblock Run so its goroutine exits before we fail
		<-done
		return fmt.Errorf("SOAK FAIL: %s campaign did not complete within %v (workers=%d churn=%q chaos=%q)",
			*kind, *duration, *workers, *churnSpec, *chaosProfile)
	}
	h.Stop()
	if out.err != nil {
		return fmt.Errorf("SOAK FAIL: coordinator: %w", out.err)
	}
	rep := out.rep

	fmt.Printf("soak %s: %d units over %d workers; %d kills, %d restarts, %d reassigned [%.1f ms wall]\n",
		rep.Kind, rep.Units, rep.Workers, h.Kills(), h.Restarts(), rep.Reassigned,
		float64(rep.Wall)/float64(time.Millisecond))
	if len(rep.Quarantined) > 0 {
		return fmt.Errorf("SOAK FAIL: units %v quarantined — chaos losses must be retried, not abandoned", rep.Quarantined)
	}
	gotReport, gotCorpus := soakBytes(rep)
	if !bytes.Equal(gotReport, wantReport) {
		return fmt.Errorf("SOAK FAIL: distributed %s report diverged from the serial oracle\ngot:  %s\nwant: %s",
			rep.Kind, gotReport, wantReport)
	}
	if !bytes.Equal(gotCorpus, wantCorpus) {
		return fmt.Errorf("SOAK FAIL: distributed fuzz corpus diverged from the serial oracle")
	}
	fmt.Println("SOAK PASS: report byte-identical to the serial oracle under churn + chaos")
	return tel.finish()
}

// soakBytes canonicalizes a report for the oracle comparison: the inner
// campaign report bytes plus the corpus bytes (null unless fuzz).
func soakBytes(rep *dist.Report) (report, corpus []byte) {
	report, _ = json.Marshal(inner(rep))
	corpus, _ = json.Marshal(rep.Corpus)
	return report, corpus
}

// soakSMR soaks the replicated log: phase-king slots over a fresh
// chaosnet-wrapped memnet mesh per slot, committing until the horizon.
// The online safety monitor (trusted replicas never diverge) and the
// liveness monitor (commit counter + latency histogram) are the verdict:
// any divergence, or a slot that cannot commit, fails the soak.
func soakSMR(ctx context.Context, n, t int, profile string, seed int64, horizon time.Duration) error {
	pk, _ := catalog.Lookup("phase-king")
	factory, rounds, err := pk.Build(catalog.Params{N: n, T: t})
	if err != nil {
		return fmt.Errorf("smr soak runs %w (try -n 5 -t 1)", err)
	}
	var plans func(slot int) *chaosnet.Plan
	if profile != "" {
		p, _ := chaosnet.ByID(profile) // validated by the caller
		plans = func(slot int) *chaosnet.Plan {
			return p.Build(seed+int64(slot), chaosnet.Env{N: n, T: t})
		}
	}
	cfg := smr.LiveConfig{
		N:        n,
		T:        t,
		NoOp:     "0",
		Protocol: func(int) (sim.Factory, int) { return factory, rounds },
		Mesh: func(slot int) ([]transport.Endpoint, func() error, error) {
			mesh := memnet.New(n, nil)
			eps := mesh.Endpoints()
			if plans != nil {
				eps = chaosnet.Wrap(eps, plans(slot), obs.From(ctx))
			}
			return eps, eps[0].Close, nil
		},
		Ctx: ctx,
	}
	if plans != nil {
		cfg.Faulty = func(slot int) proc.Set { return plans(slot).Budget() }
	}
	log, err := smr.NewLive(cfg)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(horizon)
	for slot := 0; time.Now().Before(deadline); slot++ {
		// Unanimous binary proposals per slot: agreement must hold them
		// through whatever the chaos profile does within its budget.
		cmd := smr.Command(strconv.Itoa(slot % 2))
		for r := 0; r < n; r++ {
			if err := log.Submit(proc.ID(r), cmd); err != nil {
				return err
			}
		}
		if _, err := log.CommitSlot(); err != nil {
			return fmt.Errorf("SOAK FAIL: smr slot %d did not commit: %w", slot, err)
		}
	}
	entries := log.Entries()
	p50, p99 := log.LatencyP50P99()
	fmt.Printf("soak smr: %d slots committed (n=%d t=%d chaos=%q); commit latency p50=%s p99=%s\n",
		len(entries), n, t, profile, time.Duration(p50), time.Duration(p99))
	if d := log.Divergences(); len(d) != 0 {
		return fmt.Errorf("SOAK FAIL: safety monitor recorded %d divergence(s): %+v", len(d), d)
	}
	if len(entries) == 0 {
		return fmt.Errorf("SOAK FAIL: liveness: no slot committed within %v", horizon)
	}
	fmt.Println("SOAK PASS: every slot committed, safety monitor silent")
	return nil
}
