package adversary

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"expensive/internal/obs"
)

// TestCampaignTelemetryNeverTouchesTheReport is the flight recorder's
// contract applied to campaigns: the JSON report is byte-identical with
// telemetry off, with telemetry on, and at every parallelism level — the
// recorder is a pure side channel. It also asserts the side channel
// actually recorded the hunt.
func TestCampaignTelemetryNeverTouchesTheReport(t *testing.T) {
	encode := func(parallelism int, rec *obs.Recorder) []byte {
		c := floodsetCampaign(parallelism)
		c.Ctx = obs.Into(context.Background(), rec)
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	baseline := encode(1, nil)
	rec := obs.New()
	var events bytes.Buffer
	rec.SetSink(obs.NewSink(&events))
	for _, tc := range []struct {
		name        string
		parallelism int
		rec         *obs.Recorder
	}{
		{"telemetry-on serial", 1, rec},
		{"telemetry-on parallel", 0, rec},
		{"telemetry-off parallel", 0, nil},
	} {
		if got := encode(tc.parallelism, tc.rec); !bytes.Equal(baseline, got) {
			t.Errorf("%s: report diverged from the telemetry-off serial baseline:\nbaseline:\n%s\ngot:\n%s",
				tc.name, baseline, got)
		}
	}

	// Two instrumented runs of 32 seeds each flowed through the recorder.
	probes := rec.Counter("campaign_probes").Value()
	if probes != 64 {
		t.Errorf("campaign_probes = %d, want 64 (2 runs × 32 seeds)", probes)
	}
	violations := rec.Counter("campaign_violations").Value()
	if violations == 0 {
		t.Error("campaign_violations = 0 despite a broken protocol")
	}
	if r := rec.Counter("campaign_replays").Value(); r != violations {
		t.Errorf("campaign_replays = %d, want %d: every violating probe, and only those, replays at full", r, violations)
	}
	if s := rec.Counter("shrink_steps").Value(); s == 0 {
		t.Error("shrink_steps = 0 despite Shrink being on")
	}
	if n := rec.Histogram("campaign_probe_ns").Count(); n != probes {
		t.Errorf("campaign_probe_ns count = %d, want %d (one timing per probe)", n, probes)
	}
	for _, want := range []string{`"name":"campaign-start"`, `"name":"violation-found"`, `"name":"shrink-step"`, `"name":"campaign-end"`} {
		if !bytes.Contains(events.Bytes(), []byte(want)) {
			t.Errorf("trace sink missing %s events", want)
		}
	}
}
