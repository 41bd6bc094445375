package fuzz

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"expensive/internal/adversary"
	"expensive/internal/msg"
	"expensive/internal/sim"
)

// Entry is one corpus member: a replayable probe (explicit fault plan plus
// proposal vector) that exercised engine behavior no earlier probe did,
// tagged with its coverage hash and provenance (which parent it was
// mutated from, by which operator, in which generation).
type Entry struct {
	// ID is the entry's position in discovery order (0-based).
	ID int `json:"id"`
	// Gen is the generation the entry was discovered in (0 = seeding).
	Gen int `json:"gen"`
	// Parent is the ID of the corpus entry this one was mutated from, -1
	// for seeded entries.
	Parent int `json:"parent"`
	// Op names the mutation operator that produced the entry ("seed" for
	// generation 0).
	Op string `json:"op"`
	// Cov is the coverage hash of the entry's lean execution.
	Cov uint64 `json:"cov"`
	// Violating marks entries whose probe violated a protocol property.
	Violating bool `json:"violating,omitempty"`
	// Plan and Proposals replay the probe exactly.
	Plan      adversary.ExplicitPlan `json:"plan"`
	Proposals []msg.Value            `json:"proposals"`
}

// Corpus is the persisted population of a fuzzing run. Its JSON encoding
// is deterministic: entries are appended in discovery order, and discovery
// order is a pure function of the fuzzer's inputs (generation batches are
// processed in index order), so corpora are byte-identical at every
// parallelism level.
type Corpus struct {
	// StreamVersion is the adversary.StreamVersion the entries were derived
	// under. A fuzzer refuses to resume from a populated corpus of another
	// version (a corpus saved before the field existed reads as version 1):
	// parent selection and mutation would continue on a different stream
	// than the one that grew it.
	StreamVersion int `json:"stream_version"`
	// Protocol, N and T identify the target the corpus was grown against;
	// a fuzzer refuses to resume from a corpus for a different target.
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	T        int    `json:"t"`
	// Entries, in discovery order.
	Entries []*Entry `json:"entries"`
}

// NewCorpus returns an empty corpus for the given target.
func NewCorpus(protocol string, n, t int) *Corpus {
	return &Corpus{StreamVersion: adversary.StreamVersion, Protocol: protocol, N: n, T: t}
}

// Size returns the number of entries.
func (c *Corpus) Size() int { return len(c.Entries) }

// add appends a novel entry and returns it.
func (c *Corpus) add(e Entry) *Entry {
	e.ID = len(c.Entries)
	c.Entries = append(c.Entries, &e)
	return c.Entries[e.ID]
}

// Save writes the corpus as indented JSON. The encoding is deterministic,
// so saved corpora can be diffed across runs and parallelism levels.
func (c *Corpus) Save(path string) error {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: encode: %w", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("corpus: write: %w", err)
	}
	return nil
}

// LoadCorpus reads a corpus saved by Save.
func LoadCorpus(path string) (*Corpus, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: read: %w", err)
	}
	c := &Corpus{}
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("corpus: decode %s: %w", path, err)
	}
	return c, nil
}

// coverage computes the novelty hash of an execution: per-process,
// per-round sent/send-omitted/received/receive-omitted count vectors plus
// the decision pattern (decided, value, decision round) and the overall
// round count. Two executions with the same hash drove the engine through
// the same observable schedule shape; a new hash is new behavior worth
// keeping in the corpus.
//
// The hash reads counts only, so it is tier-independent: a RecordDecisions
// run and the RecordFull replay of the same configuration hash
// identically (the engine's tier-equivalence contract).
func coverage(e *sim.Execution) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(e.Rounds))
	for _, b := range e.Behaviors {
		for r := 1; r <= b.RoundsRecorded(); r++ {
			sent, somit, recv, romit := b.Counts(r)
			word(uint64(sent)<<48 | uint64(somit)<<32 | uint64(recv)<<16 | uint64(romit))
		}
		if d, ok := b.FinalDecision(); ok {
			word(uint64(b.DecisionRound()))
			h.Write([]byte(d))
		} else {
			word(0)
		}
		h.Write([]byte{0xff}) // behavior separator
	}
	return h.Sum64()
}
