package adversary

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
)

// ledgerOutcome is one generated probe outcome.
type ledgerOutcome struct {
	c Cost
	v *Violation
}

// ledgerOutcomes generates a run of n probes: costs cycle through a small
// set (so buckets collide and sit out of order), and the probes whose
// 0-based index is in violating violate.
func ledgerOutcomes(n int, violating ...int) []ledgerOutcome {
	messages := []int{56, 40, 56, 12, 90}
	rounds := []int{3, 3, 2}
	outs := make([]ledgerOutcome, n)
	for i := range outs {
		outs[i].c = Cost{Messages: messages[i%len(messages)], Rounds: rounds[i%len(rounds)]}
	}
	for _, i := range violating {
		outs[i].v = &Violation{Seed: int64(i), Kind: "agreement", Detail: fmt.Sprintf("probe %d", i+1)}
	}
	return outs
}

func addAll(l *Ledger, outs []ledgerOutcome, keep int) {
	for i, o := range outs {
		l.Add(i+1, o.c, o.v, keep)
	}
}

func ledgerJSON(t *testing.T, l *Ledger) []byte {
	t.Helper()
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLedgerSplitMergeEqualsAdd is the rule Campaign.Merge, the dist
// coordinator and a resumed fuzz session all rest on, held where it now
// lives: for every split point of a run, Add over each half followed by
// Merge encodes to the bytes of Add over the whole run — first-violation
// index, count, the capped list and both histograms. And the merged
// ledger owns its storage: adding to it changes neither half, including
// when the other half was empty (Histogram.Merge's empty-side shortcut
// used to hand back the operand's own buckets).
func TestLedgerSplitMergeEqualsAdd(t *testing.T) {
	runs := [][]ledgerOutcome{
		ledgerOutcomes(11),
		ledgerOutcomes(11, 0),
		ledgerOutcomes(11, 10),
		ledgerOutcomes(11, 2, 3, 7, 8, 9),
	}
	for r, outs := range runs {
		for _, keep := range []int{0, 1, 3} {
			var whole Ledger
			addAll(&whole, outs, keep)
			want := ledgerJSON(t, &whole)
			for cut := 0; cut <= len(outs); cut++ {
				var first, second, merged Ledger
				addAll(&first, outs[:cut], keep)
				addAll(&second, outs[cut:], keep)
				merged.Merge(&first, 0, keep)
				merged.Merge(&second, cut, keep)
				if got := ledgerJSON(t, &merged); !bytes.Equal(got, want) {
					t.Fatalf("run %d, keep %d, cut %d:\nmerged = %s\nwhole  = %s", r, keep, cut, got, want)
				}
				halves := [][]byte{ledgerJSON(t, &first), ledgerJSON(t, &second)}
				merged.Add(len(outs)+1, outs[0].c, &Violation{Kind: "termination"}, keep)
				if !bytes.Equal(ledgerJSON(t, &first), halves[0]) || !bytes.Equal(ledgerJSON(t, &second), halves[1]) {
					t.Fatalf("run %d, keep %d, cut %d: adding to the merged ledger changed a half", r, keep, cut)
				}
			}
		}
	}
}

// TestHistogramAdd: whatever order a multiset arrives in, Add — and
// NewHistogram, which is Add in slice order — builds the same sorted,
// counted histogram.
func TestHistogramAdd(t *testing.T) {
	values := []int{5, 3, 5, 9, 3, 3, 0, 12, 5, -4}
	want, _ := json.Marshal(Histogram{Min: -4, Max: 12, Sum: 41,
		Buckets: []Bucket{{-4, 1}, {0, 1}, {3, 3}, {5, 3}, {9, 1}, {12, 1}}})
	orders := map[string]func(a, b int) bool{
		"given":      nil,
		"ascending":  func(a, b int) bool { return a < b },
		"descending": func(a, b int) bool { return a > b },
		"odd-first":  func(a, b int) bool { return a&1 > b&1 || (a&1 == b&1 && a < b) },
	}
	for name, less := range orders {
		vs := append([]int(nil), values...)
		if less != nil {
			sort.Slice(vs, func(i, j int) bool { return less(vs[i], vs[j]) })
		}
		if got, _ := json.Marshal(NewHistogram(vs)); !bytes.Equal(got, want) {
			t.Errorf("%s: NewHistogram(%v) = %s, want %s", name, vs, got, want)
		}
	}
}
