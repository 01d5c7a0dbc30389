package engine

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

// bruteArgMax is the reference fold: max score, ties to the lowest index.
func bruteArgMax(n int, score func(u int) (float64, int, bool)) Best {
	best := Best{Index: -1}
	for u := 0; u < n; u++ {
		v, aux, ok := score(u)
		if !ok {
			continue
		}
		if best.Index == -1 || v > best.Value {
			best = Best{Index: u, Aux: aux, Value: v}
		}
	}
	return best
}

func TestArgMaxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		scores := make([]float64, n)
		eligible := make([]bool, n)
		for i := range scores {
			// Coarse values force frequent ties.
			scores[i] = float64(rng.Intn(8))
			eligible[i] = rng.Intn(4) != 0
		}
		score := func(u int) (float64, int, bool) {
			return scores[u], u * 2, eligible[u]
		}
		want := bruteArgMax(n, score)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			pool := New(workers)
			got := pool.ArgMaxPair(n, func(int) PairScorer { return score })
			if got != want {
				t.Fatalf("trial %d, workers=%d: got %+v, want %+v", trial, workers, got, want)
			}
		}
	}
}

func TestArgMaxTieBreaksToLowestIndex(t *testing.T) {
	n := 5000 // large enough to actually shard
	pool := New(8)
	got := pool.ArgMax(n, func(int) Scorer {
		return func(u int) (float64, bool) { return 1.0, true }
	})
	if got.Index != 0 || got.Value != 1.0 {
		t.Fatalf("all-equal scan picked %+v, want index 0", got)
	}
}

func TestArgMaxNoEligible(t *testing.T) {
	pool := New(4)
	got := pool.ArgMax(1000, func(int) Scorer {
		return func(u int) (float64, bool) { return 0, false }
	})
	if got.Index != -1 {
		t.Fatalf("got %+v, want Index -1", got)
	}
	if got := pool.ArgMax(0, nil); got.Index != -1 {
		t.Fatalf("empty scan: got %+v, want Index -1", got)
	}
}

func TestArgMaxNegativeScores(t *testing.T) {
	// A lone eligible candidate must win even with a very negative score.
	pool := New(4)
	got := pool.ArgMax(2000, func(int) Scorer {
		return func(u int) (float64, bool) {
			if u == 1234 {
				return -1e18, true
			}
			return 0, false
		}
	})
	if got.Index != 1234 {
		t.Fatalf("got %+v, want index 1234", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		pool := New(workers)
		n := 10_000
		marks := make([]int32, n)
		pool.For(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, m)
			}
		}
	}
	New(4).For(0, func(_, _, _ int) { t.Fatal("body called for n=0") })
}

func TestFactoryRunsOnCallerGoroutine(t *testing.T) {
	// The safety contract: factories may build unsynchronized scratch.
	// Verify one factory call per shard worker, with distinct ids.
	pool := New(4)
	var calls atomic.Int32
	seen := map[int]bool{}
	pool.ArgMax(4*minShard, func(worker int) Scorer {
		calls.Add(1)
		if seen[worker] { // safe: factory runs serially on this goroutine
			t.Errorf("worker id %d handed out twice", worker)
		}
		seen[worker] = true
		return func(u int) (float64, bool) { return 0, false }
	})
	if int(calls.Load()) != len(seen) || len(seen) == 0 {
		t.Fatalf("factory calls %d, distinct ids %d", calls.Load(), len(seen))
	}
}

func TestNilAndDefaultPools(t *testing.T) {
	var nilPool *Pool
	if w := nilPool.Workers(); w != 1 {
		t.Fatalf("nil pool workers = %d, want 1", w)
	}
	if !nilPool.Serial() {
		t.Fatal("nil pool should be serial")
	}
	got := nilPool.ArgMax(100, func(int) Scorer {
		return func(u int) (float64, bool) { return float64(u), true }
	})
	if got.Index != 99 {
		t.Fatalf("nil pool argmax picked %d, want 99", got.Index)
	}
	if Default().Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
	if New(-3).Workers() != Default().Workers() {
		t.Fatal("negative worker count should fall back to GOMAXPROCS")
	}
}

// TestPoolDo checks every task runs exactly once at every worker count,
// including nil and serial pools, and that concurrency stays bounded.
func TestPoolDo(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 5, 33} {
			var pool *Pool
			if workers > 1 {
				pool = New(workers)
			}
			counts := make([]atomic.Int32, n+1)
			var running, peak atomic.Int32
			pool.Do(n, func(i int) {
				r := running.Add(1)
				for {
					p := peak.Load()
					if r <= p || peak.CompareAndSwap(p, r) {
						break
					}
				}
				counts[i].Add(1)
				running.Add(-1)
			})
			for i := 0; i < n; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
			if p := peak.Load(); int(p) > pool.Workers() {
				t.Fatalf("workers=%d n=%d: %d tasks ran concurrently", workers, n, p)
			}
		}
	}
}

// TestArgMaxCtxCancelsSmallScan pins the mid-scan cancellation contract at
// spans below cancelStride: the poll interval shrinks with the range
// (strideFor), so even a few-hundred-candidate scan with expensive scorers
// stops within a fraction of the range after cancel — not at the end.
func TestArgMaxCtxCancelsSmallScan(t *testing.T) {
	const n = 400
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited atomic.Int64
	New(1).ArgMaxCtx(ctx, n, func(int) Scorer {
		return func(u int) (float64, bool) {
			if visited.Add(1) == 10 {
				cancel()
			}
			return float64(u), true
		}
	})
	v := visited.Load()
	if v >= n {
		t.Fatalf("scan visited all %d candidates despite cancellation at 10", n)
	}
	if limit := int64(10 + strideFor(n) + 1); v > limit {
		t.Fatalf("scan visited %d candidates after cancel at 10, want ≤ %d (one small-scan stride)", v, limit)
	}
}

// TestCancelPollMatchesStrideOffsets: the countdown polls on exactly the
// candidates the offset rule (offset % stride == stride-1) names, for spans
// on both sides of cancelStride, and a nil channel never polls.
func TestCancelPollMatchesStrideOffsets(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	for _, span := range []int{1, 3, 4, 5, 17, 400, cancelStride - 1, cancelStride, 3*cancelStride + 7} {
		poll := NewCancelPoll(closed, span)
		stride := strideFor(span)
		for off := 0; off < span; off++ {
			if got, want := poll.Cancelled(), off%stride == stride-1; got != want {
				t.Fatalf("span %d offset %d: Cancelled() = %v, want %v", span, off, got, want)
			}
		}
		never := NewCancelPoll(nil, span)
		for off := 0; off < span; off++ {
			if never.Cancelled() {
				t.Fatalf("span %d offset %d: nil channel reported a cancel", span, off)
			}
		}
	}
}
