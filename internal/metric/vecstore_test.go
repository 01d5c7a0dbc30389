package metric

import (
	"math"
	"math/rand"
	"testing"
)

const vecTestDim = 8

// randVec draws a vector with coordinates in [-1, 1).
func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for k := range v {
		v[k] = 2*rng.Float64() - 1
	}
	return v
}

// int8Tol bounds the cosine-distance error of int8 quantization: each
// coordinate is rounded to within half a quantization step (maxAbs/254), a
// relative vector perturbation of at most √d/254 when |v| ≥ maxAbs, and
// cosine distance moves at most ~2× a relative perturbation on each side.
func int8Tol(dim int) float64 {
	return 4 * math.Sqrt(float64(dim)) / 127
}

// driveVecChurn applies a random append/remove sequence to a VecStore and a
// plain [][]float64 model, checking every pairwise distance against the
// float64 CosineDist reference (within tol) after each op, folding rows
// mid-churn so cache invalidation is exercised, and finally checking
// AccumulateRow/Distance agreement for every sign the solvers use.
func driveVecChurn(t *testing.T, kind string, tol float64, ops int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := NewVecStore(kind)
	if err != nil {
		t.Fatal(err)
	}
	var vecs [][]float64
	for op := 0; op < ops; op++ {
		if len(vecs) == 0 || rng.Intn(100) < 60 {
			v := randVec(rng, vecTestDim)
			idx, err := s.AppendVector(v)
			if err != nil {
				t.Fatalf("op %d: append: %v", op, err)
			}
			if idx != len(vecs) {
				t.Fatalf("op %d: append returned %d, want %d", op, idx, len(vecs))
			}
			vecs = append(vecs, v)
		} else {
			u := rng.Intn(len(vecs))
			if err := s.RemoveSwap(u); err != nil {
				t.Fatalf("op %d: remove: %v", op, err)
			}
			last := len(vecs) - 1
			vecs[u] = vecs[last]
			vecs = vecs[:last]
		}
		if s.Len() != len(vecs) {
			t.Fatalf("op %d: len %d, model %d", op, s.Len(), len(vecs))
		}
		for i := range vecs {
			for j := range vecs {
				want := CosineDist(vecs[i], vecs[j])
				if got := s.Distance(i, j); math.Abs(got-want) > tol {
					t.Fatalf("op %d: d(%d,%d) = %g, reference %g (tol %g)", op, i, j, got, want, tol)
				}
			}
		}
		// Fold a row through the cache mid-churn: a stale cached row after a
		// mutation would disagree with the freshly checked Distance values.
		if n := s.Len(); n > 0 && op%7 == 0 {
			u := rng.Intn(n)
			got := make([]float64, n)
			s.AccumulateRow(u, 1, got)
			for v := 0; v < n; v++ {
				if diff := math.Abs(got[v] - s.Distance(u, v)); diff > 1e-6 {
					t.Fatalf("op %d: cached row (%d,%d) = %g vs Distance %g", op, u, v, got[v], s.Distance(u, v))
				}
			}
		}
	}
	n := s.Len()
	for _, sign := range []float64{1, -1, 0.5} {
		for u := 0; u < n; u++ {
			got := make([]float64, n)
			s.AccumulateRow(u, sign, got)
			for v := 0; v < n; v++ {
				want := sign * s.Distance(u, v)
				if diff := math.Abs(got[v] - want); diff > 1e-6 {
					t.Fatalf("AccumulateRow(%d, %g)[%d] = %g, want %g", u, sign, v, got[v], want)
				}
			}
		}
	}
}

func TestVecF32MatchesCosineUnderChurn(t *testing.T) {
	// float32 storage rounds each coordinate (~1e-7 relative); dot products
	// over dim-8 unit-scale coordinates stay within ~1e-6 of the f64 value.
	driveVecChurn(t, KindVecF32, 1e-6, 400, 13)
}

func TestVecInt8MatchesCosineUnderChurn(t *testing.T) {
	driveVecChurn(t, KindVecInt8, int8Tol(vecTestDim), 400, 14)
}

// TestVecStoreSnapshotPinnedMidMutation pins snapshots during churn
// (including the copy-on-write removal path) and verifies each one still
// reads its exact capture-time matrix — and that its row folds agree with
// its own Distance — after every later mutation.
func TestVecStoreSnapshotPinnedMidMutation(t *testing.T) {
	for _, kind := range []string{KindVecF32, KindVecInt8} {
		t.Run(kind, func(t *testing.T) {
			s, err := NewVecStore(kind)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			type pinned struct {
				snap Snapshot
				want [][]float64
			}
			var pins []pinned
			for op := 0; op < 400; op++ {
				n := s.Len()
				if n == 0 || rng.Intn(100) < 55 {
					if _, err := s.AppendVector(randVec(rng, vecTestDim)); err != nil {
						t.Fatal(err)
					}
				} else if err := s.RemoveSwap(rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
				if op%40 == 0 {
					snap := s.Snapshot()
					if snap.Kind() != kind {
						t.Fatalf("snapshot kind %q, want %q", snap.Kind(), kind)
					}
					pins = append(pins, pinned{snap: snap, want: matrixOf(snap)})
				}
			}
			for pi, p := range pins {
				got := matrixOf(p.snap)
				if len(got) != len(p.want) {
					t.Fatalf("snapshot %d length drifted: %d, want %d", pi, len(got), len(p.want))
				}
				for i := range p.want {
					for j := range p.want[i] {
						if got[i][j] != p.want[i][j] {
							t.Fatalf("snapshot %d: d(%d,%d) drifted %g → %g", pi, i, j, p.want[i][j], got[i][j])
						}
					}
				}
				n := p.snap.Len()
				dst := make([]float64, n)
				for u := 0; u < n; u++ {
					clear(dst)
					p.snap.AccumulateRow(u, 1, dst)
					for v := 0; v < n; v++ {
						if diff := math.Abs(dst[v] - p.snap.Distance(u, v)); diff > 1e-6 {
							t.Fatalf("snapshot %d: row (%d,%d) = %g vs Distance %g", pi, u, v, dst[v], p.snap.Distance(u, v))
						}
					}
				}
			}
		})
	}
}

// TestVecStoreAppendRowRejected pins the vector-native contract: the
// triangular distance-row insert cannot work on a vector backend and must
// say so, not silently corrupt.
func TestVecStoreAppendRowRejected(t *testing.T) {
	for _, kind := range []string{KindVecF32, KindVecInt8} {
		s, err := NewVecStore(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendRow(nil); err == nil {
			t.Fatalf("%s: AppendRow accepted", kind)
		}
	}
}

func TestVecStoreInputValidation(t *testing.T) {
	s, err := NewVecStore(KindVecF32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVector([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	if _, err := s.AppendVector([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("Inf coordinate accepted")
	}
	if _, err := s.AppendVector([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVector([]float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := s.RemoveSwap(1); err == nil {
		t.Fatal("out-of-range RemoveSwap accepted")
	}
	if err := s.RemoveSwap(-1); err == nil {
		t.Fatal("negative RemoveSwap accepted")
	}
	if _, err := NewVecStore("f64"); err == nil {
		t.Fatal("non-vector kind accepted")
	}
}

// TestVecStoreZeroVector pins the CosineDist conventions: an empty or
// all-zero vector is distance 1 to everything and 0 to itself, and a store
// that saw only dimensionless points rejects a later dimensioned vector.
func TestVecStoreZeroVector(t *testing.T) {
	for _, kind := range []string{KindVecF32, KindVecInt8} {
		s, err := NewVecStore(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendVector([]float64{1, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendVector(nil); err != nil { // empty → zero vector
			t.Fatal(err)
		}
		if _, err := s.AppendVector([]float64{0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
			if got := s.Distance(pair[0], pair[1]); got != 1 {
				t.Fatalf("%s: d(%d,%d) = %g, want 1", kind, pair[0], pair[1], got)
			}
		}
		for i := 0; i < 3; i++ {
			if got := s.Distance(i, i); got != 0 {
				t.Fatalf("%s: d(%d,%d) = %g, want 0", kind, i, i, got)
			}
		}
	}
	s, _ := NewVecStore(KindVecF32)
	if _, err := s.AppendVector(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVector([]float64{1, 2}); err == nil {
		t.Fatal("dimensioned vector accepted after dimensionless points")
	}
}

// TestVecStoreBytesLinear pins the headline memory claim: resident bytes are
// exactly the O(n·d) vector storage (plus per-item norms/scales) — no n²
// term — int8 is ~4× smaller than f32, and an emptied store holds nothing.
func TestVecStoreBytesLinear(t *testing.T) {
	const n, dim = 128, 16
	rng := rand.New(rand.NewSource(31))
	f32, _ := NewVecStore(KindVecF32)
	i8, _ := NewVecStore(KindVecInt8)
	for i := 0; i < n; i++ {
		v := randVec(rng, dim)
		if _, err := f32.AppendVector(v); err != nil {
			t.Fatal(err)
		}
		if _, err := i8.AppendVector(v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := f32.Bytes(), int64(n*dim*4+n*4); got != want {
		t.Fatalf("f32 bytes %d, want %d (vectors + norms)", got, want)
	}
	if got, want := i8.Bytes(), int64(n*dim+n*4+n*4); got != want {
		t.Fatalf("int8 bytes %d, want %d (vectors + scales + norms)", got, want)
	}
	for f32.Len() > 0 {
		if err := f32.RemoveSwap(f32.Len() - 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := f32.Bytes(); got != 0 {
		t.Fatalf("empty store holds %d bytes", got)
	}
}

// TestVecStoreRowCache pins the bounded row cache: repeated folds of the
// same row hit the cache, mutations invalidate it, and eviction keeps the
// entry count at the bound.
func TestVecStoreRowCache(t *testing.T) {
	s, _ := NewVecStore(KindVecF32)
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < vecRowCacheCap+32; i++ {
		if _, err := s.AppendVector(randVec(rng, vecTestDim)); err != nil {
			t.Fatal(err)
		}
	}
	n := s.Len()
	first := make([]float64, n)
	second := make([]float64, n)
	s.AccumulateRow(3, 1, first)
	s.AccumulateRow(3, 1, second)
	rc := s.RowCacheCounts()
	hits, misses := rc.Hits, rc.Misses
	if hits != 1 || misses != 1 {
		t.Fatalf("after two folds of one row: %d hits, %d misses, want 1/1", hits, misses)
	}
	for v := range first {
		if first[v] != second[v] {
			t.Fatalf("cached row diverged at %d: %g vs %g", v, first[v], second[v])
		}
	}
	// Fill past capacity: the cache must stay bounded and keep serving
	// correct rows.
	for u := 0; u < n; u++ {
		s.AccumulateRow(u, 1, first)
	}
	if entries := len(s.cache.rows); entries > vecRowCacheCap {
		t.Fatalf("cache holds %d rows, bound is %d", entries, vecRowCacheCap)
	}
	// A mutation renumbers points; stale rows must be dropped.
	if err := s.RemoveSwap(0); err != nil {
		t.Fatal(err)
	}
	if entries := len(s.cache.rows); entries != 0 {
		t.Fatalf("cache holds %d rows after mutation, want 0", entries)
	}
	clear(first)
	s.AccumulateRow(0, 1, first[:s.Len()])
	for v := 0; v < s.Len(); v++ {
		if diff := math.Abs(first[v] - s.Distance(0, v)); diff > 1e-6 {
			t.Fatalf("post-mutation row[%d] = %g vs Distance %g", v, first[v], s.Distance(0, v))
		}
	}
}

// TestNewSnapshotterVecKinds pins the extended registry.
func TestNewSnapshotterVecKinds(t *testing.T) {
	for _, kind := range []string{KindVecF32, KindVecInt8} {
		b, err := NewSnapshotter(kind)
		if err != nil {
			t.Fatal(err)
		}
		if b.Kind() != kind {
			t.Fatalf("kind %q backend reports %q", kind, b.Kind())
		}
		if _, ok := b.(VectorAppender); !ok {
			t.Fatalf("kind %q backend is not a VectorAppender", kind)
		}
	}
}

// TestCosineDistPrecisionContract pins the cross-backend precision contract
// (see CosineDist): float64 CosineDist is the reference; the blocked float32
// kernel (MaterializeF32 over Cosine), the vec-f32 backend, and float32
// Distance reads agree with it within 1e-6 absolute on unit-scale vectors;
// vec-int8 agrees within the quantization bound int8Tol(dim).
func TestCosineDistPrecisionContract(t *testing.T) {
	const n, dim = 96, 24
	rng := rand.New(rand.NewSource(41))
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = randVec(rng, dim)
	}
	cos, err := NewCosine(vecs)
	if err != nil {
		t.Fatal(err)
	}
	blocked := MaterializeF32(cos)
	vf32, err := NewVecStoreFromVectors(KindVecF32, vecs)
	if err != nil {
		t.Fatal(err)
	}
	vi8, err := NewVecStoreFromVectors(KindVecInt8, vecs)
	if err != nil {
		t.Fatal(err)
	}
	i8Tol := int8Tol(dim)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ref := CosineDist(vecs[i], vecs[j])
			if got := cos.Distance(i, j); math.Abs(got-ref) > 1e-12 {
				t.Fatalf("Cosine d(%d,%d) = %g, CosineDist %g", i, j, got, ref)
			}
			if got := blocked.Distance(i, j); math.Abs(got-ref) > 1e-6 {
				t.Fatalf("blocked f32 d(%d,%d) = %g, CosineDist %g", i, j, got, ref)
			}
			if got := vf32.Distance(i, j); math.Abs(got-ref) > 1e-6 {
				t.Fatalf("vec-f32 d(%d,%d) = %g, CosineDist %g", i, j, got, ref)
			}
			if got := vi8.Distance(i, j); math.Abs(got-ref) > i8Tol {
				t.Fatalf("vec-int8 d(%d,%d) = %g, CosineDist %g (tol %g)", i, j, got, ref, i8Tol)
			}
		}
	}
}
