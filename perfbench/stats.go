package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects durations (or any float observations) from several
// goroutines and answers percentile queries.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// pct returns the p-th percentile (0..100) by linear interpolation
// between closest ranks; 0 when empty (a path whose every operation
// failed), which the failed count already reports.
func (s *samples) pct(p float64) float64 { return percentile(s.values(), p) }

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(v []float64) float64 { return percentile(v, 50) }

// ratio divides, answering 0 for an empty base so per-op counters of a
// path that did no work read as zero instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
