package server

import (
	"errors"
	"slices"
	"testing"
)

// TestFlushFailureMidway pins what a flush does when one op fails: the ops
// before it are applied (and written through) exactly once and leave the
// queue, the failing op and the rest stay queued in order and keep
// coalescing, the client-visible item count does not move, and the retry
// applies only the suffix.
func TestFlushFailureMidway(t *testing.T) {
	for _, maintain := range []bool{false, true} {
		var applied []string
		failID := ""
		sh, err := newShard(1, 2, 1, func(o op) error {
			if o.id == failID {
				return errors.New("injected write-through failure")
			}
			applied = append(applied, o.id)
			return nil
		}, maintain)
		if err != nil {
			t.Fatal(err)
		}
		vec := func(x float64) []float64 { return []float64{x, 1 - x} }
		sh.enqueue(op{kind: opUpsert, id: "x", weight: 1, vector: vec(0.1)})
		sh.enqueue(op{kind: opUpsert, id: "y", weight: 1, vector: vec(0.2)})
		if _, err := sh.flush(); err != nil {
			t.Fatal(err)
		}
		applied = nil

		sh.enqueue(op{kind: opUpsert, id: "a", weight: 2, vector: vec(0.3)})
		sh.enqueue(op{kind: opDelete, id: "x"})
		sh.enqueue(op{kind: opUpsert, id: "b", weight: 3, vector: vec(0.4)})
		sh.enqueue(op{kind: opUpsert, id: "y", weight: 5, vector: vec(0.2)})
		sh.enqueue(op{kind: opUpsert, id: "c", weight: 4, vector: vec(0.5)})
		const wantLive = 4 // y, a, b, c
		if got := sh.liveCount(); got != wantLive {
			t.Fatalf("maintain=%v: liveCount before flush = %d, want %d", maintain, got, wantLive)
		}

		failID = "b"
		if _, err := sh.flush(); err == nil {
			t.Fatalf("maintain=%v: flush with a failing op returned nil", maintain)
		}
		if !slices.Equal(applied, []string{"a", "x"}) {
			t.Fatalf("maintain=%v: written through %v, want the prefix [a x]", maintain, applied)
		}
		var queued []string
		for i, o := range sh.pending {
			queued = append(queued, o.id)
			if sh.pendingIdx[o.id] != i {
				t.Fatalf("maintain=%v: pendingIdx[%q] = %d, want %d", maintain, o.id, sh.pendingIdx[o.id], i)
			}
		}
		if !slices.Equal(queued, []string{"b", "y", "c"}) || len(sh.pendingIdx) != 3 {
			t.Fatalf("maintain=%v: queue after failure %v, want [b y c]", maintain, queued)
		}
		if got := sh.liveCount(); got != wantLive {
			t.Fatalf("maintain=%v: liveCount after failure = %d, want %d", maintain, got, wantLive)
		}
		// The queued suffix still coalesces by id.
		sh.enqueue(op{kind: opUpsert, id: "c", weight: 7, vector: vec(0.5)})
		if n := sh.pendingLen(); n != 3 {
			t.Fatalf("maintain=%v: re-upsert of a queued id grew the queue to %d", maintain, n)
		}

		failID = ""
		if _, err := sh.flush(); err != nil {
			t.Fatalf("maintain=%v: retry: %v", maintain, err)
		}
		if !slices.Equal(applied, []string{"a", "x", "b", "y", "c"}) {
			t.Fatalf("maintain=%v: written through %v, want each op once", maintain, applied)
		}
		if sh.pendingLen() != 0 || sh.liveCount() != wantLive || len(sh.items) != wantLive {
			t.Fatalf("maintain=%v: after retry pending=%d live=%d items=%d", maintain, sh.pendingLen(), sh.liveCount(), len(sh.items))
		}
		weights := map[string]float64{}
		for _, it := range sh.items {
			weights[it.id] = it.weight
		}
		if weights["y"] != 5 || weights["c"] != 7 || weights["b"] != 3 || weights["a"] != 2 {
			t.Fatalf("maintain=%v: items after retry %v", maintain, weights)
		}
		if maintain && sh.sess.N() != wantLive {
			t.Fatalf("maintain=%v: session holds %d elements, want %d", maintain, sh.sess.N(), wantLive)
		}
	}
}
