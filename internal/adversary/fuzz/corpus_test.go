package fuzz

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expensive/internal/adversary"
)

// grownCorpus is the corpus a short floodset (4, 3) run grows from seed.
func grownCorpus(f testing.TB, seed adversary.Strategy) []byte {
	fz := floodsetFuzzer(4, 3, 4, 1)
	fz.Seed = seed
	if _, err := fz.Run(); err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(fz.Corpus)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzCorpusResume feeds arbitrary bytes through LoadCorpus into a small
// floodset (4, 3) fuzzer. A refusal at either step is fine; a panic or a
// hang is not.
func FuzzCorpusResume(f *testing.F) {
	omissions := grownCorpus(f, adversary.RandomSendOmission(40))
	twoFaced := grownCorpus(f, adversary.TwoFaced())
	f.Add(omissions)
	f.Add(twoFaced)
	f.Add([]byte(strings.ReplaceAll(string(twoFaced), `"kind":"two-faced"`, `"kind":"three-faced"`)))
	f.Add([]byte(`{"stream_version":2,"protocol":"floodset","n":4,"t":3,"entries":[null]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "corpus.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCorpus(path)
		if err != nil {
			return
		}
		fz := floodsetFuzzer(4, 3, 16, 1)
		fz.Corpus = c
		_, _ = fz.Run() // a refusal is an acceptable outcome
	})
}
