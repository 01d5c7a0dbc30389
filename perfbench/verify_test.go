package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

// bruteForce returns the best φ over all k-subsets of n items.
func bruteForce(w []float64, dist func(i, j int) float64, k int, lambda float64) float64 {
	best := math.Inf(-1)
	var S []int
	var rec func(from int)
	rec = func(from int) {
		if len(S) == k {
			best = max(best, phi(w, dist, S, lambda))
			return
		}
		for u := from; u < len(w); u++ {
			S = append(S, u)
			rec(u + 1)
			S = S[:len(S)-1]
		}
	}
	rec(0)
	return best
}

// On metric instances the paper's greedy is a 2-approximation.
func TestRefGreedyHalfOfOptimum(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := range 300 {
		n := 2 + rng.IntN(11) // 2..12
		k := 1 + rng.IntN(n)
		lambda := []float64{0, 0.2, 1, 3}[rng.IntN(4)]
		pts := make([][2]float64, n)
		w := make([]float64, n)
		for i := range pts {
			pts[i] = [2]float64{rng.Float64(), rng.Float64()}
			w[i] = rng.Float64() * 2
		}
		dist := func(i, j int) float64 { return math.Hypot(pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]) }
		order := refGreedy(w, dist, k, lambda)
		if len(order) != k {
			t.Fatalf("trial %d: greedy picked %d of k=%d", trial, len(order), k)
		}
		got, opt := phi(w, dist, order, lambda), bruteForce(w, dist, k, lambda)
		if got < opt/2-1e-12 {
			t.Errorf("trial %d (n=%d k=%d λ=%g): greedy φ=%g < OPT/2 = %g", trial, n, k, lambda, got, opt/2)
		}
	}
}

// A greedy run to k is the prefix of a run to any larger k.
func TestRefGreedyPrefixes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	n := 40
	w := make([]float64, n)
	pts := make([]float64, n)
	for i := range w {
		w[i], pts[i] = rng.Float64(), rng.Float64()
	}
	dist := func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
	long := refGreedy(w, dist, 20, 1)
	for k := 1; k < 20; k++ {
		short := refGreedy(w, dist, k, 1)
		for i := range short {
			if short[i] != long[i] {
				t.Fatalf("k=%d run is not a prefix of the k=20 run", k)
			}
		}
	}
}

func TestLiveCopyCosine(t *testing.T) {
	lc := &liveCopy{vec: [][]float64{{1, 0}, {0, 2}, {-3, 0}, {0, 0}}}
	for _, v := range lc.vec {
		lc.norm = append(lc.norm, math.Hypot(v[0], v[1]))
	}
	for _, c := range []struct {
		i, j int
		want float64
	}{{0, 1, 1}, {0, 2, 2}, {0, 0, 0}, {0, 3, 1}} {
		if got := lc.dist(c.i, c.j); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("dist(%d,%d) = %g, want %g", c.i, c.j, got, c.want)
		}
	}
}
