package main

import (
	"math"
	"sort"
)

// summary is the order statistics of one metric over the runs of a set.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median of values; 0 for an empty slice.
func median(values []float64) float64 {
	s := sorted(values)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), the
// rule the benchmark contract states its spread in. Fewer than two
// values have no spread: both quartiles are the single value.
func quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := sorted(values)
	q1, q3 := quartiles(values)
	return summary{N: len(s), Median: median(values), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// percentile returns the p-quantile (0 < p < 1) of values by the
// nearest-rank rule, which never interpolates beyond a measured sample.
func percentile(values []float64, p float64) float64 {
	s := sorted(values)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// geomean is the geometric mean of positive values.
func geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}
