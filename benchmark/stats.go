package main

import "sort"

// summary describes a sample the way the benchmark reports it: the
// median with the quartiles Python's statistics.quantiles(v, n=4) gives.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	// The "exclusive" method: quartile i sits at position i*(n+1)/4 and
	// is interpolated (at the ends, extrapolated) between its neighbours.
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return summary{N: n, Median: q(2), Q1: q(1), Q3: q(3)}
}

func median(v []float64) float64 { return summarize(v).Median }

// percentile returns the p-th percentile (nearest rank) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
