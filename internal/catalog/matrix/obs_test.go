package matrix_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"expensive/internal/catalog/matrix"
	"expensive/internal/obs"
)

// TestGridTelemetryAndTimingDeterminism is the flight-recorder contract
// plus the satellite metrics applied to the matrix: the default grid is
// byte-identical with telemetry on or off at every parallelism level,
// violating cells carry the deterministic first_violation_probe metric,
// and the nondeterministic wall-clock statistics stay out of the encoding.
func TestGridTelemetryAndTimingDeterminism(t *testing.T) {
	encode := func(parallelism int, rec *obs.Recorder) []byte {
		m := smallMatrix(parallelism)
		m.Ctx = obs.Into(context.Background(), rec)
		g, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	baseline := encode(1, nil)
	rec := obs.New()
	var events bytes.Buffer
	rec.SetSink(obs.NewSink(&events))
	if got := encode(1, rec); !bytes.Equal(baseline, got) {
		t.Errorf("telemetry-on serial grid diverged from the telemetry-off baseline")
	}
	if got := encode(8, rec); !bytes.Equal(baseline, got) {
		t.Errorf("telemetry-on parallel grid diverged from the telemetry-off baseline")
	}

	// first_violation_probe: deterministic, per cell, only on violating
	// cells (omitempty keeps clean and skipped cells unchanged).
	var g matrix.Grid
	if err := json.Unmarshal(baseline, &g); err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Cells {
		switch {
		case c.ViolationCount > 0 && (c.FirstViolationProbe < 1 || c.FirstViolationProbe > c.Probes):
			t.Errorf("cell %s×%s n=%d: first_violation_probe %d outside 1..%d",
				c.Protocol, c.Strategy, c.N, c.FirstViolationProbe, c.Probes)
		case c.ViolationCount == 0 && c.FirstViolationProbe != 0:
			t.Errorf("clean cell %s×%s n=%d carries first_violation_probe %d",
				c.Protocol, c.Strategy, c.N, c.FirstViolationProbe)
		}
	}
	if !bytes.Contains(baseline, []byte(`"first_violation_probe"`)) {
		t.Error("no cell carries first_violation_probe although the sweep breaks FloodSet")
	}
	if bytes.Contains(baseline, []byte(`"probes_per_sec"`)) || bytes.Contains(baseline, []byte(`"wall_ms"`)) {
		t.Error("the grid encoding carries wall-clock statistics")
	}

	// The matrix-level counters and cell events reached the recorder.
	cells := int64(len(g.Cells))
	if got := rec.Counter("matrix_cells").Value(); got != 2*cells {
		t.Errorf("matrix_cells = %d, want %d (2 instrumented runs)", got, 2*cells)
	}
	if got := rec.Counter("matrix_cells_violating").Value(); got == 0 {
		t.Error("matrix_cells_violating = 0 despite broken cells")
	}
	if got := rec.Counter("campaign_probes").Value(); got == 0 {
		t.Error("campaign_probes = 0: cell campaigns must aggregate into the shared recorder")
	}
	for _, want := range []string{`"name":"matrix-start"`, `"name":"matrix-cell"`, `"name":"matrix-end"`} {
		if !bytes.Contains(events.Bytes(), []byte(want)) {
			t.Errorf("trace sink missing %s events", want)
		}
	}
}
