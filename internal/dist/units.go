package dist

import (
	"fmt"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog/matrix"
)

// Unit is one work assignment. Exactly one of Seeds, Cell, Batch is set,
// matching the job kind. Unit IDs are dense and ascending; for hunt and
// matrix they enumerate the whole campaign up front, for fuzz they grow
// generation by generation.
type Unit struct {
	ID int `json:"id"`
	// Seeds is a hunt sub-range (a contiguous slice of the job's range).
	Seeds *adversary.SeedRange `json:"seeds,omitempty"`
	// Cell is a matrix cell reference.
	Cell *CellRef `json:"cell,omitempty"`
	// Batch is a fuzz probe batch.
	Batch *FuzzBatch `json:"batch,omitempty"`
}

// CellRef addresses one matrix cell by index into the MatrixJob's
// ordered Protocols/Strategies/Sizes headers.
type CellRef struct {
	Protocol int `json:"protocol"`
	Strategy int `json:"strategy"`
	Size     int `json:"size"`
}

// FuzzBatch is a contiguous slice [Start, Start+Count) of one fuzz
// generation's probes. For the seeding generation (Seed true) probe
// Start+i is the seed strategy's (Start+i)-th plan; otherwise probe i of
// the batch executes Candidates[i].
type FuzzBatch struct {
	Gen        int              `json:"gen"`
	Seed       bool             `json:"seed,omitempty"`
	Start      int              `json:"start"`
	Count      int              `json:"count"`
	Candidates []fuzz.Candidate `json:"candidates,omitempty"`
}

// Result is one completed unit, shipped back from a worker. Probes
// counts executed probes (for progress accounting); the payload field
// matches the unit kind.
type Result struct {
	Unit   int                       `json:"unit"`
	Probes int                       `json:"probes"`
	Hunt   *adversary.CampaignReport `json:"hunt,omitempty"`
	Cell   *matrix.Cell              `json:"cell,omitempty"`
	Fuzz   []fuzz.Outcome            `json:"fuzz,omitempty"`
}

// fits reports a result whose payload is not its unit's: the wrong kind,
// a hunt report that did not probe every seed of the unit's range, or a
// fuzz batch of the wrong length.
func (u *Unit) fits(r *Result) error {
	switch {
	case u.Seeds != nil && (r.Hunt == nil || r.Hunt.Probes != u.Seeds.Count()),
		u.Cell != nil && r.Cell == nil,
		u.Batch != nil && len(r.Fuzz) != u.Batch.Count:
		return fmt.Errorf("dist: result does not carry the payload of unit %d", u.ID)
	}
	return nil
}

// huntUnits cuts the hunt's seed range into the job's fixed unit count —
// contiguous, ascending, worker-count-independent.
func huntUnits(j *HuntJob) []*Unit {
	parts := j.Seeds.Split(j.Units)
	units := make([]*Unit, len(parts))
	for i := range parts {
		r := parts[i]
		units[i] = &Unit{ID: i, Seeds: &r}
	}
	return units
}

// matrixUnits enumerates one unit per cell in matrix.CellIndex order —
// the exact order matrix.Run probes and Grid.Cells lists them.
func matrixUnits(j *MatrixJob) []*Unit {
	n := len(j.Protocols) * len(j.Strategies) * len(j.Sizes)
	units := make([]*Unit, n)
	for i := 0; i < n; i++ {
		pi, si, zi := matrix.CellIndex(i, len(j.Strategies), len(j.Sizes))
		units[i] = &Unit{ID: i, Cell: &CellRef{Protocol: pi, Strategy: si, Size: zi}}
	}
	return units
}

// batchUnits cuts one fuzz generation into batches of at most size
// probes. IDs continue from *nextID (advanced in place) so fuzz unit IDs
// stay globally unique across generations.
func batchUnits(g *fuzz.Generation, size int, nextID *int) []*Unit {
	var units []*Unit
	for start := 0; start < g.Count; start += size {
		count := min(size, g.Count-start)
		b := &FuzzBatch{Gen: g.Gen, Seed: g.Seed, Start: start, Count: count}
		if !g.Seed {
			b.Candidates = g.Candidates[start : start+count]
		}
		units = append(units, &Unit{ID: *nextID, Batch: b})
		*nextID++
	}
	return units
}
