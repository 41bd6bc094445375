package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
)

// checkpointVersion gates checkpoint compatibility. Version 1 kept the
// fuzz histograms as count maps beside the report; since version 2 they
// live in the report's ledger, so resuming a version-1 file would drop
// every probe folded before it from the histograms — it is refused.
const checkpointVersion = 2

// Checkpoint is the coordinator's persisted progress: the job (for
// identity checking on resume), the completed units of a hunt or matrix
// campaign, and the fuzz session state (which subsumes the merged corpus
// and the report-so-far). It marshals deterministically — encoding/json
// sorts the unit-map keys.
type Checkpoint struct {
	Version int `json:"version"`
	// StreamVersion is the adversary.StreamVersion the completed units
	// and the fuzz session drew their randomness under; a checkpoint from
	// another version is refused (a missing field reads as version 1),
	// because the remaining units would be cut from a different stream.
	StreamVersion int  `json:"stream_version"`
	Job           *Job `json:"job"`
	// Units holds the completed units by ID (hunt and matrix kinds).
	Units map[int]*Result `json:"units,omitempty"`
	// Fuzz is the session snapshot after the last folded generation.
	Fuzz *fuzz.SessionState `json:"fuzz,omitempty"`
}

// jobIdentity is the job's resume-identity encoding: the campaign
// definition with the purely operational knobs (heartbeat cadence,
// telemetry forwarding) zeroed, so changing them does not orphan a
// checkpoint.
func jobIdentity(j *Job) ([]byte, error) {
	cp := *j
	cp.HeartbeatMS = 0
	cp.WantEvents = false
	return json.Marshal(&cp)
}

// saveCheckpoint writes the checkpoint atomically: marshal, write to a
// temp file in the same directory, rename over the target. A coordinator
// killed mid-save leaves the previous checkpoint intact.
func saveCheckpoint(path string, cp *Checkpoint) error {
	body, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("dist: marshal checkpoint: %w", err)
	}
	body = append(body, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.json")
	if err != nil {
		return fmt.Errorf("dist: checkpoint temp file: %w", err)
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dist: install checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a checkpoint and verifies it belongs to job. A
// missing file is a fresh start (nil, nil); a format-version,
// stream-version or job mismatch is an error — resuming a different
// campaign's checkpoint, or the same campaign's on another random stream,
// would silently corrupt the report.
func loadCheckpoint(path string, job *Job) (*Checkpoint, error) {
	body, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: read checkpoint: %w", err)
	}
	// A key this binary does not know is refused, not dropped: a job
	// setting it would otherwise resume under the default it replaced.
	var cp Checkpoint
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("dist: decode checkpoint %s: %w", path, err)
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("dist: decode checkpoint %s: data after the checkpoint", path)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("dist: checkpoint %s has version %d, want %d", path, cp.Version, checkpointVersion)
	}
	if err := adversary.CheckStreamVersion("checkpoint "+path, cp.StreamVersion); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if cp.Job == nil {
		return nil, fmt.Errorf("dist: checkpoint %s carries no job", path)
	}
	want, err := jobIdentity(job)
	if err != nil {
		return nil, err
	}
	have, err := jobIdentity(cp.Job)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(want, have) {
		return nil, fmt.Errorf("dist: checkpoint %s belongs to a different job; refusing to resume", path)
	}
	return &cp, nil
}
