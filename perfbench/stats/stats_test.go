package stats

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 5, 5}, {90, 9, 1}, {95, 10, 0}, {99, 10, 0}, {10, 1, 9}} {
		got, beyond := Percentile(xs, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%g = %g (%d beyond), want %g (%d beyond)", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if v, b := Percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("empty: %g, %d", v, b)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("Spread = %g, want 1", s)
	}
}

func run(p99, p95, p90 float64, b99, b95, b90 int) TailRun {
	return TailRun{
		Value:  map[float64]float64{99: p99, 95: p95, 90: p90},
		Beyond: map[float64]int{99: b99, 95: b95, 90: b90},
	}
}

func TestChooseTail(t *testing.T) {
	steady := []TailRun{run(10, 5, 4, 20, 100, 200), run(10.2, 5.1, 4, 20, 100, 200), run(9.9, 5, 4.1, 20, 100, 200)}
	if p, ok := ChooseTail(10, 0.1, steady); !ok || p != 99 {
		t.Errorf("steady runs: p%g ok=%v, want p99", p, ok)
	}
	// One run keeps too few samples beyond p99: fall back to p95.
	few := append([]TailRun{run(10, 5, 4, 9, 100, 200)}, steady[1:]...)
	if p, ok := ChooseTail(10, 0.1, few); !ok || p != 95 {
		t.Errorf("few samples at p99: p%g ok=%v, want p95", p, ok)
	}
	// p99 and p95 do not repeat within a tenth: fall back to p90.
	noisy := []TailRun{run(10, 5, 4, 20, 100, 200), run(20, 8, 4.1, 20, 100, 200), run(30, 6, 4, 20, 100, 200), run(12, 9, 4.05, 20, 100, 200)}
	if p, ok := ChooseTail(10, 0.1, noisy); !ok || p != 90 {
		t.Errorf("noisy upper tails: p%g ok=%v, want p90", p, ok)
	}
	// Nothing qualifies.
	if _, ok := ChooseTail(10, 0.1, []TailRun{run(1, 1, 1, 0, 0, 0)}); ok {
		t.Error("no samples beyond any tail, want ok=false")
	}
	if _, ok := ChooseTail(10, 0.1, nil); ok {
		t.Error("no runs, want ok=false")
	}
	// The tail must qualify for every latency: steady queries allow p99,
	// but writes that repeat only at p90 fix p90 for both.
	if p, ok := ChooseTail(10, 0.1, steady, noisy); !ok || p != 90 {
		t.Errorf("steady queries, noisy writes: p%g ok=%v, want p90", p, ok)
	}
	if _, ok := ChooseTail(10, 0.1, steady, []TailRun{run(1, 1, 1, 0, 0, 0)}); ok {
		t.Error("one latency qualifies nowhere, want ok=false")
	}
}

func TestSelfTimes(t *testing.T) {
	got := SelfTimes([]Rung{{"solve", 4}, {"diversify", 3}, {"handler", 3.5}, {"http", 5}})
	want := []Rung{{"solve", 4}, {"diversify", -1}, {"handler", 0.5}, {"http", 1.5}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	var sum float64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rung %d = %v, want %v", i, got[i], want[i])
		}
		sum += got[i].MS
	}
	// Self times telescope back to the outermost rung's time.
	if sum != 5 {
		t.Errorf("self times sum to %g, want the outer rung's 5", sum)
	}
}
