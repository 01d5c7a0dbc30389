// Package stats holds the benchmark's summary arithmetic: percentiles with
// their sample counts, quartile spreads, tail-percentile selection and layer
// self times, and the JSON lines a run prints, shared by the benchmark and
// the steadiness tool that reads them.
package stats

import (
	"math"
	"slices"
)

// MetricVal is one reported metric.
type MetricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's last line of output.
type Result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]MetricVal `json:"metrics"`
}

// LatencyReport is one latency read at the median and every candidate tail
// percentile, with the fewest samples beyond each in any sub-window.
type LatencyReport struct {
	N      int                `json:"n"`
	Value  map[string]float64 `json:"value"`
	Beyond map[string]int     `json:"beyond"`
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100)
// and how many samples lie beyond it. xs need not be sorted.
func Percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// Median is the nearest-rank 50th percentile.
func Median(xs []float64) float64 {
	v, _ := Percentile(xs, 50)
	return v
}

// Quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads here match that common reference.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile distance as a share of the median.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// TailCandidates are the tail percentiles a workload may fix, highest first.
var TailCandidates = []float64{99, 95, 90}

// TailRun is one run's reading of a latency at every candidate percentile.
type TailRun struct {
	Value  map[float64]float64
	Beyond map[float64]int
}

// ChooseTail picks the highest candidate percentile at which, for every
// latency given, every run kept at least minBeyond samples beyond it and
// the runs repeat: the quartile spread of their values stays within tol.
// ok is false when none qualifies.
func ChooseTail(minBeyond int, tol float64, latencies ...[]TailRun) (p float64, ok bool) {
	for _, p := range TailCandidates {
		if qualifies(p, minBeyond, tol, latencies) {
			return p, true
		}
	}
	return 0, false
}

func qualifies(p float64, minBeyond int, tol float64, latencies [][]TailRun) bool {
	if len(latencies) == 0 {
		return false
	}
	for _, runs := range latencies {
		if len(runs) == 0 {
			return false
		}
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			if r.Beyond[p] < minBeyond {
				return false
			}
			vals = append(vals, r.Value[p])
		}
		if Spread(vals) > tol {
			return false
		}
	}
	return true
}

// Rung is one layer's time for the same query, measured at its public
// entry point; a ladder lists rungs from the innermost layer outwards.
type Rung struct {
	Name string
	MS   float64
}

// SelfTimes returns each rung's own time: its time minus the time of the
// rung below it (the innermost rung's self time is its whole time).
func SelfTimes(ladder []Rung) []Rung {
	out := make([]Rung, len(ladder))
	for i, r := range ladder {
		out[i] = r
		if i > 0 {
			out[i].MS = r.MS - ladder[i-1].MS
		}
	}
	return out
}
