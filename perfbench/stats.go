package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted values by
// the nearest-rank rule: the smallest value with at least p% of the samples
// at or below it. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle of the values (the mean of the two middle ones
// for an even count), without modifying the input.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of the values by the
// method Python's statistics.quantiles(values, n=4) uses by default (the
// "exclusive" method), so spreads computed here agree with that tool.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// sampler collects float samples from many goroutines.
type sampler struct {
	mu sync.Mutex
	v  []float64
}

func (s *sampler) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *sampler) addDur(d time.Duration) { s.add(ms(d)) }

// sorted returns a sorted copy of the samples.
func (s *sampler) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// pct is the p-th percentile of the samples so far.
func (s *sampler) pct(p float64) float64 { return percentile(s.sorted(), p) }

func (s *sampler) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
