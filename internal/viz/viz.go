// Package viz renders recorded executions as text timelines in the visual
// language of the paper's Figures 1 and 2: one row per process, one column
// per round, with glyphs for sending activity, omission faults and
// decisions. The falsifier CLI uses it to print counterexample executions
// a human can audit at a glance.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Glyphs of the timeline. Each round cell combines activity and fault
// markers:
//
//	.   silent (nothing sent, nothing dropped)
//	s   sent at least one message
//	x   send-omitted at least one message (faulty sender)
//	r   receive-omitted at least one message (faulty receiver)
//	*   both send- and receive-omissions in the round
//
// A decision is appended once, in the round it becomes visible: "=v".
const legend = ". silent | s sent | x send-omit | r recv-omit | * both | =v decided v"

// Options tune the rendering.
type Options struct {
	// MaxRounds truncates the timeline (0 = all rounds).
	MaxRounds int
	// Groups optionally labels process ranges (e.g. the (A, B, C)
	// partition); the label of the first matching group is shown.
	Groups map[string]proc.Set
}

// Timeline renders the execution.
func Timeline(e *sim.Execution, opts Options) string {
	rounds := e.Rounds
	if opts.MaxRounds > 0 && opts.MaxRounds < rounds {
		rounds = opts.MaxRounds
	}
	var b strings.Builder
	fmt.Fprintf(&b, "execution: n=%d t=%d faulty=%v rounds=%d\n", e.N, e.T, e.Faulty, e.Rounds)
	fmt.Fprintf(&b, "legend: %s\n", legend)

	groupNames := make([]string, 0, len(opts.Groups))
	for name := range opts.Groups {
		groupNames = append(groupNames, name)
	}
	sort.Strings(groupNames)

	// Header row with round numbers.
	idWidth := len(fmt.Sprintf("p%d", e.N-1))
	groupWidth := 0
	for _, name := range groupNames {
		if len(name) > groupWidth {
			groupWidth = len(name)
		}
	}
	fmt.Fprintf(&b, "%*s %*s |", idWidth, "", groupWidth, "")
	for r := 1; r <= rounds; r++ {
		fmt.Fprintf(&b, "%3d", r)
	}
	b.WriteString("\n")

	for i := 0; i < e.N; i++ {
		id := proc.ID(i)
		label := ""
		for _, name := range groupNames {
			if opts.Groups[name].Contains(id) {
				label = name
				break
			}
		}
		fmt.Fprintf(&b, "%*s %*s |", idWidth, id.String(), groupWidth, label)
		beh := e.Behavior(id)
		decidedShown := false
		for r := 1; r <= rounds; r++ {
			f := beh.Frag(r)
			cell := glyph(f)
			if f.Decided && !decidedShown {
				decidedShown = true
				cell += "=" + trim(f.Decision)
			}
			fmt.Fprintf(&b, "%3s", cell)
		}
		if e.Faulty.Contains(id) {
			b.WriteString("  (faulty)")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func glyph(f sim.Fragment) string {
	so, ro := len(f.SendOmitted) > 0, len(f.ReceiveOmitted) > 0
	switch {
	case so && ro:
		return "*"
	case so:
		return "x"
	case ro:
		return "r"
	case len(f.Sent) > 0:
		return "s"
	default:
		return "."
	}
}

func trim(v msg.Value) string {
	s := string(v)
	if len(s) > 1 {
		return s[:1] + "…"
	}
	return s
}

// Diff renders, round by round, where two executions diverge from the
// perspective of each process's received messages — the
// indistinguishability structure the proofs argue about.
func Diff(e1, e2 *sim.Trace) string {
	var b strings.Builder
	rounds := max(e1.Rounds, e2.Rounds)
	fmt.Fprintf(&b, "per-process received-view divergence (first differing round, '-' = identical):\n")
	for i := 0; i < e1.N && i < e2.N; i++ {
		id := proc.ID(i)
		b1, b2 := e1.Behavior(id), e2.Behavior(id)
		first := "-"
		if b1.Proposal != b2.Proposal {
			first = "proposal"
		} else {
			for r := 1; r <= rounds; r++ {
				if !msg.SameSet(b1.Frag(r).Received, b2.Frag(r).Received) {
					first = fmt.Sprintf("round %d", r)
					break
				}
			}
		}
		fmt.Fprintf(&b, "  %s: %s\n", id, first)
	}
	return b.String()
}
