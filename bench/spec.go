package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// metricDecl is one metric declaration of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single declaration of the
// workload names, the metric names with their units and directions, and
// the regression bounds. The binary reads it at start-up, so a metric
// it computes but the file does not declare is an error, not a silent
// extra column.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory when run through bench/run.sh, its parent when run from
// inside bench/ (go test, go run).
func loadSpec() (*benchSpec, string, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, "", err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, "", err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, root, nil
}

// repoRoot is the directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err == nil {
			return root, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root (bash bench/run.sh)")
}

func (s *benchSpec) decl(name string) (metricDecl, bool) {
	for _, d := range s.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range s.PerLayer {
		if d.Name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}

// metricSet collects the values of one run. set refuses undeclared names
// and duplicates, so every emitted number has a declared unit and is
// measured in exactly one place.
type metricSet struct {
	spec *benchSpec
	vals map[string]float64
	errs []string
}

func newMetricSet(spec *benchSpec) *metricSet {
	return &metricSet{spec: spec, vals: make(map[string]float64)}
}

func (m *metricSet) set(name string, v float64) {
	switch _, declared := m.spec.decl(name); {
	case !declared:
		m.errs = append(m.errs, fmt.Sprintf("metric %q is not declared in BENCHMARK.json", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.errs = append(m.errs, fmt.Sprintf("metric %q is not finite (%v)", name, v))
	default:
		if _, dup := m.vals[name]; dup {
			m.errs = append(m.errs, fmt.Sprintf("metric %q set twice", name))
		}
		m.vals[name] = v
	}
}

func (m *metricSet) err() error {
	if len(m.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(m.errs, "; "))
}

// emitted is one printed metric value.
type emitted struct {
	Name  string
	Unit  string
	Value float64
	Set   bool
}

// collect lists the values of decls in declaration order. End-to-end
// metrics must all be present; a per-layer metric the workload's traced
// pass does not touch reads 0 ("this workload bypasses that layer").
func (m *metricSet) collect(decls []metricDecl, requireAll bool) ([]emitted, error) {
	out := make([]emitted, 0, len(decls))
	for _, d := range decls {
		v, ok := m.vals[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %q was not measured", d.Name)
		}
		out = append(out, emitted{Name: d.Name, Unit: d.Unit, Value: v, Set: ok})
	}
	return out, nil
}

// resultLine renders the contract's last stdout line: one JSON object
// with the keys correct, attempted, failed and metrics, the metrics in
// declaration order.
func resultLine(correct bool, attempted, failed int, ms []emitted) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, e := range ms {
		if i > 0 {
			b.WriteString(", ")
		}
		name, _ := json.Marshal(e.Name)
		unit, _ := json.Marshal(e.Unit)
		val, _ := json.Marshal(e.Value)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, val, unit)
	}
	b.WriteString("}}")
	return b.String()
}
