package dist

import (
	"context"

	"expensive/internal/adversary/fuzz"
)

// Local holds what an in-process run is given beside the job: settings of
// the machine and the invocation, which a worker or a later resume must
// not inherit and which therefore never travel on the Job. The zero value
// is Serial.
type Local struct {
	// Parallelism is the probe (hunt, fuzz) or cell (matrix) worker
	// count; <= 0 means NumCPU. It never changes report bytes.
	Parallelism int
	// Corpus seeds a fuzz run with a resumed corpus, like
	// Coordinator.Corpus.
	Corpus *fuzz.Corpus
}

// Serial runs a job single-process through the exact engine construction
// the workers use and returns the Report a distributed run of the same
// job is contractually byte-identical to. It is what `baexp hunt`,
// `fuzz` and `matrix` run, and the soak harness's oracle: after a
// campaign survives churn and chaos, its report and corpus are diffed
// against this baseline, and any divergence is a determinism bug, not
// noise.
func Serial(ctx context.Context, job *Job) (*Report, error) {
	return Local{}.Run(ctx, job)
}

// Run is Serial with the local settings applied.
func (l Local) Run(ctx context.Context, job *Job) (*Report, error) {
	e, err := job.build()
	if err != nil {
		return nil, err
	}
	job.normalize()
	report := &Report{Kind: job.Kind, Workers: 1}
	switch {
	case e.campaign != nil:
		e.campaign.Parallelism = l.Parallelism
		e.campaign.Ctx = ctx
		report.Hunt, err = e.campaign.Run()
		report.Units = job.Hunt.Units
	case e.fuzzer != nil:
		e.fuzzer.Parallelism = l.Parallelism
		e.fuzzer.Corpus = l.Corpus
		e.fuzzer.Ctx = ctx
		report.Fuzz, err = e.fuzzer.Run()
		report.Corpus = e.fuzzer.Corpus
	default:
		e.matrix.Parallelism = l.Parallelism
		e.matrix.Ctx = ctx
		if report.Grid, err = e.matrix.Run(); err == nil {
			report.Units = len(report.Grid.Cells)
		}
	}
	if err != nil {
		return nil, err
	}
	return report, nil
}
