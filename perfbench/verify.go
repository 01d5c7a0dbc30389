package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
)

// refGreedy is the paper's greedy for max-sum diversification with a
// modular quality, in float64: each round adds the item maximizing
// ½·w(u) + λ·Σ_{v∈S} d(u, v), ties going to the lowest index. It returns
// the items in the order added, so a run to k answers every smaller k.
func refGreedy(w []float64, dist func(i, j int) float64, k int, lambda float64) []int {
	n := len(w)
	k = min(k, n)
	du := make([]float64, n)
	in := make([]bool, n)
	order := make([]int, 0, k)
	for len(order) < k {
		best, bestScore := -1, math.Inf(-1)
		for u := range n {
			if in[u] {
				continue
			}
			if s := 0.5*w[u] + lambda*du[u]; s > bestScore {
				best, bestScore = u, s
			}
		}
		in[best] = true
		order = append(order, best)
		for u := range n {
			if !in[u] {
				du[u] += dist(u, best)
			}
		}
	}
	return order
}

// phi is the max-sum objective f(S) + λ·Σ_{u<v∈S} d(u, v) with f(S) = Σ w.
func phi(w []float64, dist func(i, j int) float64, S []int, lambda float64) float64 {
	var f, d float64
	for i, u := range S {
		f += w[u]
		for _, v := range S[:i] {
			d += dist(u, v)
		}
	}
	return f + lambda*d
}

// liveCopy is the benchmark's own copy of the final live set, in id order.
type liveCopy struct {
	ids   []string
	index map[string]int
	w     []float64
	vec   [][]float64
	norm  []float64
}

func newLiveCopy(clients []*client) *liveCopy {
	type entry struct {
		id  string
		rec itemRec
	}
	var all []entry
	for _, c := range clients {
		for id, rec := range c.owned {
			all = append(all, entry{id, rec})
		}
	}
	slices.SortFunc(all, func(a, b entry) int { return strings.Compare(a.id, b.id) })
	lc := &liveCopy{index: make(map[string]int, len(all))}
	for i, e := range all {
		lc.index[e.id] = i
		lc.ids = append(lc.ids, e.id)
		lc.w = append(lc.w, e.rec.weight)
		lc.vec = append(lc.vec, e.rec.vec)
		var s float64
		for _, x := range e.rec.vec {
			s += x * x
		}
		lc.norm = append(lc.norm, math.Sqrt(s))
	}
	return lc
}

// dist is the cosine distance 1 − cos(u, v), clamped to [0, 2], with
// distance 1 to a zero vector: the convention the servers use.
func (lc *liveCopy) dist(i, j int) float64 {
	a, b := lc.vec[i], lc.vec[j]
	if lc.norm[i] == 0 || lc.norm[j] == 0 {
		return 1
	}
	var dot float64
	for k := range a {
		dot += a[k] * b[k]
	}
	s := dot / (lc.norm[i] * lc.norm[j])
	s = min(max(s, -1), 1)
	return 1 - s
}

// verifyKs are the cardinalities of the verification queries, each asked
// at every query λ on the quiescent final state.
var verifyKs = []int{5, 10, 20}

// verify issues the verification queries and returns the mean objective
// ratio φ(served) ÷ φ(reference greedy), with φ recomputed from the served
// ids on the benchmark's copy. Failed checks count in t.
func verify(c *http.Client, url string, lc *liveCopy, t *tally) (float64, error) {
	kMax := slices.Max(verifyKs)
	var sum float64
	var count int
	for _, lambda := range queryLambdas {
		ref := refGreedy(lc.w, lc.dist, kMax, lambda)
		for _, k := range verifyKs {
			t.attempted++
			code, body, err := do(c, "POST", url+"/diversify", queryBody(k, lambda, "", false))
			if err != nil {
				return 0, fmt.Errorf("verification query: %w", err)
			}
			served, msg := checkFinal(code, body, k, lc)
			if msg != "" {
				t.failed++
				t.errs = append(t.errs, fmt.Sprintf("verification k=%d λ=%g: %s", k, lambda, msg))
				continue
			}
			want := phi(lc.w, lc.dist, ref[:min(k, len(ref))], lambda)
			sum += phi(lc.w, lc.dist, served, lambda) / want
			count++
		}
	}
	if count == 0 {
		return 0, nil
	}
	return sum / float64(count), nil
}

// checkFinal checks a query answer against the exact final live set.
func checkFinal(code int, body []byte, k int, lc *liveCopy) ([]int, string) {
	if code != http.StatusOK {
		return nil, fmt.Sprintf("status %d: %.200s", code, body)
	}
	var r divResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err.Error()
	}
	n := len(lc.ids)
	if r.N != n {
		return nil, fmt.Sprintf("answer over n=%d, live set has %d", r.N, n)
	}
	if len(r.Items) != min(k, n) {
		return nil, fmt.Sprintf("%d items, want %d", len(r.Items), min(k, n))
	}
	out := make([]int, 0, len(r.Items))
	seen := make(map[int]bool)
	for _, it := range r.Items {
		i, ok := lc.index[it.ID]
		if !ok {
			return nil, fmt.Sprintf("id %q is not live", it.ID)
		}
		if seen[i] {
			return nil, fmt.Sprintf("id %q twice", it.ID)
		}
		seen[i] = true
		out = append(out, i)
	}
	return out, ""
}
