package obstaint_test

import (
	"testing"

	"expensive/internal/analysis"
	"expensive/internal/analysis/analysistest"
	"expensive/internal/analysis/obstaint"
)

func TestObstaint(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{obstaint.Analyzer},
		"expensive/internal/experiments/flagged",
		"expensive/internal/experiments/runner",
		"expensive/internal/obs",
		"outside")
}
