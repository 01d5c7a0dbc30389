package metric

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkSnapRows verifies every cached row of a snapshot bit for bit against
// a fresh cosineRow over the snapshot's own view, and the cache's shape:
// within its bound, and order listing exactly the cached points.
func checkSnapRows(t *testing.T, label string, snap *vecSnap) {
	t.Helper()
	snap.cache.mu.Lock()
	rows := make(map[int][]float32, len(snap.cache.rows))
	for u, row := range snap.cache.rows {
		rows[u] = row
	}
	order := slices.Clone(snap.cache.order)
	capacity := snap.cache.cap
	snap.cache.mu.Unlock()
	if len(rows) > capacity {
		t.Fatalf("%s: cache holds %d rows, bound %d", label, len(rows), capacity)
	}
	if len(order) != len(rows) {
		t.Fatalf("%s: order lists %d points, map holds %d", label, len(order), len(rows))
	}
	want := make([]float32, snap.n)
	for _, u := range order {
		row, ok := rows[u]
		if !ok {
			t.Fatalf("%s: order lists %d, map lacks it", label, u)
		}
		if len(row) != snap.n {
			t.Fatalf("%s: row %d has %d entries, snapshot has %d points", label, u, len(row), snap.n)
		}
		snap.cosineRow(u, want)
		for v := range want {
			if math.Float32bits(row[v]) != math.Float32bits(want[v]) {
				t.Fatalf("%s: row %d entry %d = %v, fresh cosineRow %v", label, u, v, row[v], want[v])
			}
		}
	}
}

// driveCarry runs random append / RemoveSwap (the last slot included) /
// vector rewrite / weight-only publish / Snapshot sequences with zero
// vectors mixed in, warming rows between publishes. A slot→id model
// predicts which rows each publish must carry, and in which order; a
// snapshot pinned early is read concurrently throughout and re-checked at
// the end.
func driveCarry(t *testing.T, kind string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const capRows = 10
	s, err := NewVecStoreRowCache(kind, capRows)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int // model: the id of the vector in each slot
	nextID := 0
	appendVec := func() {
		v := randVec(rng, vecTestDim)
		if rng.Intn(8) == 0 {
			clear(v) // zero vector: distance 1 to everything
		}
		if _, err := s.AppendVector(v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, nextID)
		nextID++
	}
	removeSwap := func(u int) {
		if err := s.RemoveSwap(u); err != nil {
			t.Fatal(err)
		}
		last := len(ids) - 1
		ids[u] = ids[last]
		ids = ids[:last]
	}
	for range 40 {
		appendVec()
	}

	var pinned *vecSnap
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
		if pinned != nil {
			checkSnapRows(t, "pinned snapshot at the end", pinned)
		}
	}()

	var prev *vecSnap
	var prevIDs []int
	carried := int64(0)
	for step := range 400 {
		// Mutate a little between publishes (sometimes not at all: a
		// weight-only publish changes no vector), now and then a burst
		// long enough to move a point more than once.
		burst := rng.Intn(4)
		if rng.Intn(8) == 0 {
			burst = 10 + rng.Intn(20)
		}
		for range burst {
			switch r := rng.Intn(10); {
			case r < 4 || len(ids) < 8:
				appendVec()
			case r < 6:
				removeSwap(len(ids) - 1)
			case r < 8:
				removeSwap(rng.Intn(len(ids)))
			default: // vector rewrite, as the serving corpus does it
				removeSwap(rng.Intn(len(ids)))
				appendVec()
			}
		}
		snap := s.Snapshot().(*vecSnap)
		label := fmt.Sprintf("%s seed %d publish %d", kind, seed, step)
		if prev != nil && prev != pinned {
			// The carried points are the previous cache's that survive,
			// renumbered to their slots now, in the previous FIFO order.
			// (Not checkable against the pinned snapshot, whose cache the
			// reader goroutine keeps filling.)
			slotOf := make(map[int]int, len(ids))
			for j, id := range ids {
				slotOf[id] = j
			}
			prev.cache.mu.Lock()
			var want []int
			for _, u := range prev.cache.order {
				if j, ok := slotOf[prevIDs[u]]; ok {
					want = append(want, j)
				}
			}
			prev.cache.mu.Unlock()
			snap.cache.mu.Lock()
			got := slices.Clone(snap.cache.order)
			snap.cache.mu.Unlock()
			if !slices.Equal(got, want) {
				t.Fatalf("%s: carried points %v, want %v", label, got, want)
			}
			carried += int64(len(want))
		}
		checkSnapRows(t, label, snap)
		// Warm some rows through both read paths.
		dst := make([]float64, snap.n)
		for range 1 + rng.Intn(4) {
			snap.AccumulateRow(rng.Intn(snap.n), 1, dst)
		}
		snap.Rows([]int{rng.Intn(snap.n), rng.Intn(snap.n)}, nil)
		checkSnapRows(t, label+" after reads", snap)

		if step == 20 {
			pinned = snap
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + 1))
				dst := make([]float64, pinned.n)
				for {
					select {
					case <-stop:
						return
					default:
					}
					u := r.Intn(pinned.n)
					clear(dst)
					pinned.AccumulateRow(u, 1, dst)
					for v := range dst {
						if want := float64(float32(pinned.Distance(u, v))); dst[v] != want {
							t.Errorf("pinned snapshot row %d entry %d = %v, want %v", u, v, dst[v], want)
							return
						}
					}
				}
			}()
		}
		prev, prevIDs = snap, slices.Clone(ids)
	}
	if got := s.RowCacheCounts().Carried; got < carried || carried == 0 {
		t.Fatalf("Carried counter %d, model carried at least %d rows", got, carried)
	}
}

func TestVecSnapshotCarryMatchesFreshRows(t *testing.T) {
	for _, kind := range []string{KindVecF32, KindVecInt8} {
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				driveCarry(t, kind, seed)
			}
		})
	}
}

// TestVecSnapshotCarryExtendsInPlace: a publish that only appended extends
// the carried row in its own array once capacity allows, and a publish
// that changed no vector hands the same row on unchanged.
func TestVecSnapshotCarryExtendsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, _ := NewVecStore(KindVecF32)
	for range 20 {
		s.AppendVector(randVec(rng, vecTestDim))
	}
	row := func(snap Snapshot, u int) []float32 {
		c := snap.(*vecSnap).cache
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.rows[u]
	}
	a := s.Snapshot()
	a.AccumulateRow(3, 1, make([]float64, 20))
	s.AppendVector(randVec(rng, vecTestDim))
	b := s.Snapshot() // row 3 outgrows its exact-size array here
	s.AppendVector(randVec(rng, vecTestDim))
	c := s.Snapshot()
	d := s.Snapshot() // weight-only publish
	rb, rc, rd := row(b, 3), row(c, 3), row(d, 3)
	if len(rb) != 21 || len(rc) != 22 || len(rd) != 22 {
		t.Fatalf("carried row lengths %d, %d, %d; want 21, 22, 22", len(rb), len(rc), len(rd))
	}
	if &rc[0] != &rb[0] {
		t.Error("append-only publish copied the carried row instead of extending it")
	}
	if &rd[0] != &rc[0] {
		t.Error("weight-only publish copied the carried row")
	}
	if len(row(a, 3)) != 20 {
		t.Errorf("older snapshot's row grew to %d entries", len(row(a, 3)))
	}
	// A delete below the old length forces a patched copy.
	s.RemoveSwap(0)
	e := s.Snapshot()
	if re := row(e, 3); len(re) != 21 || &re[0] == &rd[0] {
		t.Error("publish after a delete did not copy the carried row")
	}
	checkSnapRows(t, "after delete", e.(*vecSnap))
}
