package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentiles are the percentiles a latency may be reported at.
var tailPercentiles = []struct {
	label string
	q     float64
}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}, {"p9999", 0.9999}}

// highestPercentile picks the highest reportable percentile of n
// samples: the one that still has at least ten samples beyond it.
func highestPercentile(n int) (label string, q float64) {
	label, q = tailPercentiles[0].label, tailPercentiles[0].q
	for _, p := range tailPercentiles {
		if float64(n)*(1-p.q) >= 10-1e-9 { // tolerance: 100*(1-0.9) is 9.999…
			label, q = p.label, p.q
		}
	}
	return label, q
}

// quartiles matches Python's statistics.quantiles(v, n=4), which the
// driver uses to judge this benchmark's steadiness.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
