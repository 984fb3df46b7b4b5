package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of repeated measurements of one quantity.
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks; NaN when there are no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// groupMeans averages each run of k consecutive samples; a trailing
// partial group counts only when it is the only one. On a shared host a
// single short operation is either slowed by a neighbour or not, so its
// times are bimodal and their median jumps between the modes; the mean
// of a group moves smoothly with the share of slowed operations.
func (s samples) groupMeans(k int) samples {
	var out samples
	for i := 0; i+k <= len(s); i += k {
		sum := 0.0
		for _, v := range s[i : i+k] {
			sum += v
		}
		out.add(sum / float64(k))
	}
	if len(out) == 0 && len(s) > 0 {
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		out.add(sum / float64(len(s)))
	}
	return out
}

// tailPercentiles are the percentiles a summary may quote, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile in tailPercentiles that has at
// least ten samples beyond it, and ok=false when even the median has
// fewer (fewer than 20 samples).
func (s samples) tail() (pct float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(len(s))*(1-p/100) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// summary renders the median, the sample count and the highest
// percentile the sample supports. upper selects the upper tail (for
// times); throughputs pass false and get the matching lower tail.
func (s samples) summary(upper bool) string {
	out := fmt.Sprintf("median %.6g, quartiles %.6g..%.6g, n=%d", s.median(), s.quantile(0.25), s.quantile(0.75), len(s))
	p, ok := s.tail()
	switch {
	case !ok:
		return out + ", no percentile has 10 samples beyond it"
	case upper:
		return out + fmt.Sprintf(", p%g %.6g", p, s.quantile(p/100))
	default:
		return out + fmt.Sprintf(", p%g (low tail) %.6g", p, s.quantile(1-p/100))
	}
}
