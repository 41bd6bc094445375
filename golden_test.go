package expensive_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"expensive"
	"expensive/internal/adversary"
)

// The goldens pin the seed → plan mapping across commits and Go versions:
// the CI smokes only compare one binary with itself. If a test here fails
// because the stream was changed on purpose, bump adversary.StreamVersion
// (and dist.ProtocolVersion) and replace the file with the bytes the
// failure prints; if it fails for any other reason, the change moved the
// stream by accident.

// checkGolden compares got with testdata/name, byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("%v\ncontent for a deliberate pin:\n%s", err, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("testdata/%s no longer matches (stream_version %d). Got:\n%s", name, adversary.StreamVersion, got)
	}
}

// TestGoldenHuntReports pins two small hunts over seeds 0:64, first
// violation recorded and shrunk. FloodSet n = 4 t = 1 under
// random-omission(40) is the plain case; with one faulty process its
// histograms are the same under any stream, and what it pins of the
// stream is the single seed that splits the decision and that seed's
// plan. The n = 4 t = 2 hunt under union(targeted-withhold,
// random-omission(40)) does not hang on one seed: the targeted half
// splits the decision on seeds the stream picks (a count that moves with
// it), and the recorded plan lists every message the random half's coin
// dropped.
func TestGoldenHuntReports(t *testing.T) {
	fs, ok := expensive.LookupProtocol("floodset")
	if !ok {
		t.Fatal("floodset not registered")
	}
	random := expensive.StrategyRandomOmission(40)
	for _, tc := range []struct {
		file     string
		t        int
		strategy expensive.AttackStrategy
	}{
		{"hunt-floodset-n4-t1-random-omission.json", 1, random},
		{"hunt-floodset-n4-t2-union-targeted-random-omission.json", 2, expensive.StrategyUnion(expensive.StrategyTargetedWithhold(), random)},
	} {
		c, err := expensive.NewCampaignFor(fs, expensive.DefaultProtocolParams(4, tc.t), tc.strategy, expensive.SeedRange{From: 0, To: 64})
		if err != nil {
			t.Fatal(err)
		}
		c.MaxViolations = 1
		c.Shrink = true
		report, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.file, append(got, '\n'))
	}
}

// TestGoldenFuzzFirstViolation pins the adaptive-hunt figure the
// benchmark records as fuzz.probes_to_first_violation: probes until the
// fuzzer splits FloodSet at n = 4 t = 3 from random-send-omission seeds,
// budget 2048, fuzz seed 0.
func TestGoldenFuzzFirstViolation(t *testing.T) {
	fs, ok := expensive.LookupProtocol("floodset")
	if !ok {
		t.Fatal("floodset not registered")
	}
	f, err := expensive.NewFuzzerFor(fs, expensive.DefaultProtocolParams(4, 3), expensive.StrategyRandomSendOmission(40), 2048)
	if err != nil {
		t.Fatal(err)
	}
	f.StopOnViolation = true
	f.Parallelism = 1
	report, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(struct {
		StreamVersion       int `json:"stream_version"`
		FirstViolationProbe int `json:"first_violation_probe"`
		Probes              int `json:"probes"`
		CorpusSize          int `json:"corpus_size"`
	}{report.StreamVersion, report.FirstViolationProbe, report.Probes, report.CorpusSize}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fuzz-floodset-n4-t3-first-violation.json", append(got, '\n'))
}
