package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples a reported percentile must have beyond
// it. A p99 over 500 samples rests on five values and moves with any
// one of them; with ten or more beyond, one outlier shifts it by one
// rank at most.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// ascending-sorted samples. It refuses, with an error, a percentile that
// has fewer than minTail samples beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// dist is a sample set of one timing or count.
type dist []float64

// quantiles returns the p50 and p99 of the samples, sorting them in
// place.
func (d dist) quantiles() (p50, p99 float64, err error) {
	sort.Float64s(d)
	if p50, err = percentile(d, 0.50); err != nil {
		return 0, 0, err
	}
	if p99, err = percentile(d, 0.99); err != nil {
		return 0, 0, err
	}
	return p50, p99, nil
}

func (d dist) sum() float64 {
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s
}

// mean returns the sample mean, 0 for no samples.
func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	return d.sum() / float64(len(d))
}

// median returns the middle value (the mean of the two middle values
// for an even count), sorting in place; 0 for no samples.
func (d dist) median() float64 {
	n := len(d)
	if n == 0 {
		return 0
	}
	sort.Float64s(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
