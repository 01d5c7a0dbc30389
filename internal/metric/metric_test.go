package metric

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(4)
	if d.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", d.Len())
	}
	d.SetDistance(0, 1, 1.5)
	d.SetDistance(3, 2, 2.25)
	if got := d.Distance(1, 0); got != 1.5 {
		t.Errorf("Distance(1,0) = %g, want 1.5 (symmetry)", got)
	}
	if got := d.Distance(2, 3); got != 2.25 {
		t.Errorf("Distance(2,3) = %g, want 2.25", got)
	}
	if got := d.Distance(2, 2); got != 0 {
		t.Errorf("Distance(2,2) = %g, want 0", got)
	}
	// Diagonal set is a no-op.
	d.SetDistance(1, 1, 99)
	if got := d.Distance(1, 1); got != 0 {
		t.Errorf("Distance(1,1) after diagonal set = %g, want 0", got)
	}
}

func TestDenseSetDistancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetDistance with negative value did not panic")
		}
	}()
	NewDense(3).SetDistance(0, 1, -1)
}

func TestDenseZeroAndOnePoint(t *testing.T) {
	for _, n := range []int{0, 1} {
		d := NewDense(n)
		if d.Len() != n {
			t.Errorf("NewDense(%d).Len() = %d", n, d.Len())
		}
		if err := Validate(d, 0); err != nil {
			t.Errorf("Validate(NewDense(%d)) = %v", n, err)
		}
	}
}

func TestNewDenseFromMatrix(t *testing.T) {
	m := [][]float64{
		{0, 1, 2},
		{1, 0, 1.5},
		{2, 1.5, 0},
	}
	d, err := NewDenseFromMatrix(m)
	if err != nil {
		t.Fatalf("NewDenseFromMatrix: %v", err)
	}
	if got := d.Distance(0, 2); got != 2 {
		t.Errorf("Distance(0,2) = %g, want 2", got)
	}

	bad := [][]float64{{0, 1}, {2, 0}}
	if _, err := NewDenseFromMatrix(bad); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	ragged := [][]float64{{0, 1}, {1}}
	if _, err := NewDenseFromMatrix(ragged); err == nil {
		t.Error("ragged matrix accepted")
	}
	diag := [][]float64{{1}}
	if _, err := NewDenseFromMatrix(diag); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	neg := [][]float64{{0, -1}, {-1, 0}}
	if _, err := NewDenseFromMatrix(neg); err == nil {
		t.Error("negative entry accepted")
	}
}

func TestDenseClone(t *testing.T) {
	d := NewDense(3)
	d.SetDistance(0, 1, 1)
	cp := d.Clone()
	cp.SetDistance(0, 1, 9)
	if d.Distance(0, 1) != 1 {
		t.Error("Clone shares storage with original")
	}
	if cp.Distance(0, 1) != 9 {
		t.Error("Clone did not take the write")
	}
}

func TestFillAndMaterialize(t *testing.T) {
	d := NewDense(5)
	d.Fill(func(i, j int) float64 { return float64(i + j) })
	if got := d.Distance(4, 1); got != 5 {
		t.Errorf("Distance(4,1) = %g, want 5", got)
	}
	f := Func{N: 5, F: func(i, j int) float64 { return float64(i + j) }}
	mat := Materialize(f)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if mat.Distance(i, j) != d.Distance(i, j) {
				t.Fatalf("Materialize mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// Property: every symmetric matrix with entries in [1,2] is a metric. This is
// the invariant the paper's synthetic workload (Section 7.1) relies on.
func TestUniform12IsAlwaysMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		d := NewDense(n)
		d.Fill(func(i, j int) float64 { return 1 + rng.Float64() })
		if err := Validate(d, 1e-12); err != nil {
			t.Fatalf("trial %d: [1,2] matrix failed Validate: %v", trial, err)
		}
	}
}

func TestValidateCatchesTriangleViolation(t *testing.T) {
	d := NewDense(3)
	d.SetDistance(0, 1, 1)
	d.SetDistance(1, 2, 1)
	d.SetDistance(0, 2, 5) // 1 + 1 < 5
	err := Validate(d, 1e-12)
	if err == nil {
		t.Fatal("Validate accepted a triangle violation")
	}
	if !strings.Contains(err.Error(), "triangle") {
		t.Errorf("error %q does not mention the triangle inequality", err)
	}
}

func TestValidateRelaxed(t *testing.T) {
	d := NewDense(3)
	d.SetDistance(0, 1, 1)
	d.SetDistance(1, 2, 1)
	d.SetDistance(0, 2, 3) // violates α=1, satisfies α=2/3: 1+1 ≥ (2/3)·3
	if err := Validate(d, 1e-12); err == nil {
		t.Error("α=1 validation should fail")
	}
	if err := ValidateRelaxed(d, 2.0/3.0, 1e-12); err != nil {
		t.Errorf("α=2/3 validation failed: %v", err)
	}
	if err := ValidateRelaxed(d, 0, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestValidateSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(40)
	d.Fill(func(i, j int) float64 { return 1 + rng.Float64() })
	if err := ValidateSample(d, 500, rng.Intn, 1e-12); err != nil {
		t.Errorf("ValidateSample on a [1,2] metric: %v", err)
	}
	// Tiny or degenerate inputs are accepted trivially.
	if err := ValidateSample(NewDense(2), 10, rng.Intn, 0); err != nil {
		t.Errorf("ValidateSample(n=2): %v", err)
	}
}

func TestPointsNorms(t *testing.T) {
	pts := [][]float64{{0, 0}, {3, 4}, {1, 1}}
	cases := []struct {
		norm Norm
		d01  float64
	}{
		{L2, 5},
		{L1, 7},
		{LInf, 4},
	}
	for _, c := range cases {
		p, err := NewPoints(pts, c.norm)
		if err != nil {
			t.Fatalf("%v: %v", c.norm, err)
		}
		if got := p.Distance(0, 1); math.Abs(got-c.d01) > 1e-12 {
			t.Errorf("%v Distance(0,1) = %g, want %g", c.norm, got, c.d01)
		}
		if got := p.Distance(1, 0); got != p.Distance(0, 1) {
			t.Errorf("%v asymmetric", c.norm)
		}
		if p.Distance(2, 2) != 0 {
			t.Errorf("%v nonzero diagonal", c.norm)
		}
		if err := Validate(p, 1e-9); err != nil {
			t.Errorf("%v is not a metric: %v", c.norm, err)
		}
	}
	if p, _ := NewPoints(pts, L2); p.Dim() != 2 || p.Len() != 3 {
		t.Error("Dim/Len wrong")
	}
	if _, err := NewPoints([][]float64{{1}, {1, 2}}, L2); err == nil {
		t.Error("ragged points accepted")
	}
	if _, err := NewPoints([][]float64{{math.NaN()}}, L2); err == nil {
		t.Error("NaN coordinate accepted")
	}
	if _, err := NewPoints(pts, Norm(42)); err == nil {
		t.Error("unknown norm accepted")
	}
}

func TestNormString(t *testing.T) {
	if L2.String() != "l2" || L1.String() != "l1" || LInf.String() != "linf" {
		t.Error("Norm.String names wrong")
	}
	if !strings.Contains(Norm(9).String(), "9") {
		t.Error("unknown norm String should include the value")
	}
}

func TestCosine(t *testing.T) {
	vecs := [][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
		{2, 0},
		{0, 0}, // zero vector
	}
	c, err := NewCosine(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Distance(0, 3); math.Abs(got) > 1e-12 {
		t.Errorf("parallel vectors distance = %g, want 0", got)
	}
	if got := c.Distance(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("orthogonal vectors distance = %g, want 1", got)
	}
	if got := c.Distance(0, 2); math.Abs(got-(1-math.Sqrt2/2)) > 1e-12 {
		t.Errorf("45° distance = %g", got)
	}
	if got := c.Distance(0, 4); got != 1 {
		t.Errorf("zero-vector distance = %g, want 1", got)
	}
	if c.Distance(2, 2) != 0 {
		t.Error("diagonal not zero")
	}
	if _, err := NewCosine([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged vectors accepted")
	}
	if _, err := NewCosine([][]float64{{math.Inf(1)}}); err == nil {
		t.Error("Inf coordinate accepted")
	}
}

func TestAngularIsMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		a, err := NewAngular(vecs)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(a, 1e-9); err != nil {
			t.Fatalf("trial %d: angular distance violated metric axioms: %v", trial, err)
		}
	}
}

func TestAngularVsCosineOrdering(t *testing.T) {
	// Both distances must induce the same ordering of pairs.
	vecs := [][]float64{{1, 0}, {1, 0.2}, {1, 1}, {0, 1}}
	c, _ := NewCosine(vecs)
	a, _ := NewAngular(vecs)
	type pair struct{ i, j int }
	pairs := []pair{{0, 1}, {0, 2}, {0, 3}}
	for k := 1; k < len(pairs); k++ {
		pc := c.Distance(pairs[k-1].i, pairs[k-1].j) < c.Distance(pairs[k].i, pairs[k].j)
		pa := a.Distance(pairs[k-1].i, pairs[k-1].j) < a.Distance(pairs[k].i, pairs[k].j)
		if pc != pa {
			t.Errorf("cosine and angular disagree on ordering of pair %d", k)
		}
	}
}

func TestOneTwo(t *testing.T) {
	m, err := NewOneTwo(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance(0, 1) != 1 || m.Distance(1, 0) != 1 {
		t.Error("adjacent distance != 1")
	}
	if m.Distance(0, 2) != 2 {
		t.Error("non-adjacent distance != 2")
	}
	if m.Distance(3, 3) != 0 {
		t.Error("diagonal != 0")
	}
	if err := Validate(m, 0); err != nil {
		t.Errorf("{1,2} metric fails Validate: %v", err)
	}
	if _, err := NewOneTwo(3, [][2]int{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewOneTwo(3, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestScaled(t *testing.T) {
	d := NewDense(3)
	d.SetDistance(0, 1, 2)
	s := Scaled{M: d, Factor: 0.5}
	if s.Len() != 3 {
		t.Error("Scaled.Len wrong")
	}
	if got := s.Distance(0, 1); got != 1 {
		t.Errorf("Scaled.Distance = %g, want 1", got)
	}
}

func TestFuncAdapter(t *testing.T) {
	f := Func{N: 3, F: func(i, j int) float64 { return 7 }}
	if f.Distance(1, 1) != 0 {
		t.Error("Func diagonal should be 0")
	}
	if f.Distance(0, 2) != 7 {
		t.Error("Func off-diagonal wrong")
	}
	if f.Len() != 3 {
		t.Error("Func.Len wrong")
	}
}

// Lemma 1 of the paper: for a metric d and disjoint sets X, Y,
// (|X|−1)·d(X,Y) ≥ |Y|·d(X). Property-check it on random metrics.
func TestLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(10)
		d := NewDense(n)
		// Random [1,2] distances: always a metric.
		d.Fill(func(i, j int) float64 { return 1 + rng.Float64() })
		perm := rng.Perm(n)
		xSize := 2 + rng.Intn(n-3)
		ySize := 1 + rng.Intn(n-xSize)
		X, Y := perm[:xSize], perm[xSize:xSize+ySize]

		var dX, dXY float64
		for a := 0; a < len(X); a++ {
			for b := a + 1; b < len(X); b++ {
				dX += d.Distance(X[a], X[b])
			}
		}
		for _, x := range X {
			for _, y := range Y {
				dXY += d.Distance(x, y)
			}
		}
		lhs := float64(len(X)-1) * dXY
		rhs := float64(len(Y)) * dX
		if lhs < rhs-1e-9 {
			t.Fatalf("trial %d: Lemma 1 violated: (|X|-1)d(X,Y)=%g < |Y|d(X)=%g", trial, lhs, rhs)
		}
	}
}

func TestNewDensePanicsOnNegativeSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense(-1) did not panic")
		}
	}()
	NewDense(-1)
}

// TestDenseAppendRow grows a random dense metric point by point and checks
// every pairwise distance survives each growth step.
func TestDenseAppendRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	want := [][]float64{}
	d := NewDense(0)
	for n := 0; n < 12; n++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = 1 + rng.Float64()
		}
		idx, err := d.AppendRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if idx != n {
			t.Fatalf("AppendRow returned index %d, want %d", idx, n)
		}
		want = append(want, row)
		if d.Len() != n+1 {
			t.Fatalf("Len = %d after %d appends", d.Len(), n+1)
		}
		for i := 0; i <= n; i++ {
			for j := 0; j < i; j++ {
				if got := d.Distance(i, j); got != want[i][j] {
					t.Fatalf("d(%d,%d) = %g, want %g", i, j, got, want[i][j])
				}
				if d.Distance(i, j) != d.Distance(j, i) {
					t.Fatalf("asymmetric after append at (%d,%d)", i, j)
				}
			}
		}
	}
	if _, err := d.AppendRow([]float64{1}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := d.AppendRow(make([]float64, d.Len()-1)); err == nil {
		t.Fatal("row of wrong length accepted")
	}
	bad := make([]float64, d.Len())
	bad[0] = -1
	if _, err := d.AppendRow(bad); err == nil {
		t.Fatal("negative distance accepted")
	}
}

// TestDenseRemoveSwap deletes random points and checks the survivor pairwise
// distances against a reference map, applying the documented n−1 → u remap.
func TestDenseRemoveSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 14
	d := NewDense(n)
	d.Fill(func(i, j int) float64 { return 1 + rng.Float64() })
	// labels[i] is the original identity of current index i.
	labels := make([]int, n)
	orig := Materialize(d)
	for i := range labels {
		labels[i] = i
	}
	for d.Len() > 1 {
		u := rng.Intn(d.Len())
		last := d.Len() - 1
		if err := d.RemoveSwap(u); err != nil {
			t.Fatal(err)
		}
		labels[u] = labels[last]
		labels = labels[:last]
		for i := 0; i < d.Len(); i++ {
			for j := 0; j < i; j++ {
				want := orig.Distance(labels[i], labels[j])
				if got := d.Distance(i, j); got != want {
					t.Fatalf("after removals: d(%d,%d) = %g, want %g", i, j, got, want)
				}
			}
		}
	}
	if err := d.RemoveSwap(5); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	if err := d.RemoveSwap(0); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after removing everything", d.Len())
	}
}

// TestCosineDist checks the raw-vector helper against the Cosine metric.
func TestCosineDist(t *testing.T) {
	vecs := [][]float64{{1, 0}, {0.9, 0.1}, {0, 1}, {0, 0}, {-1, 0.5}}
	c, err := NewCosine(vecs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vecs {
		for j := range vecs {
			if i == j {
				continue
			}
			want := c.Distance(i, j)
			got := CosineDist(vecs[i], vecs[j])
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("CosineDist(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	if got := CosineDist([]float64{0, 0}, []float64{1, 1}); got != 1 {
		t.Fatalf("zero vector distance = %g, want 1", got)
	}
}

// cosineDistOnePass is CosineDist as one function, summing the dot product
// and both norms itself: the reference CosineDistNorms must match.
func cosineDistOnePass(a, b []float64) float64 {
	var dot, na, nb float64
	m := min(len(a), len(b))
	for k := 0; k < m; k++ {
		dot += a[k] * b[k]
	}
	for _, x := range a {
		na += x * x
	}
	for _, x := range b {
		nb += x * x
	}
	if na == 0 || nb == 0 {
		return 1
	}
	s := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return 1 - s
}

// TestCosineDistNormsBitIdentical pins the precomputed-norm insert path of
// the triangular backends: distances from stored SquaredNorms are bit for
// bit CosineDist's, zero vectors and mismatched dimensions included.
func TestCosineDistNormsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vecs := [][]float64{nil, {0, 0, 0}, {1e-300, 0, 0}}
	for i := 0; i < 60; i++ {
		v := make([]float64, 3+rng.Intn(3)*13)
		for k := range v {
			v[k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		vecs = append(vecs, v)
	}
	for _, a := range vecs {
		na := SquaredNorm(a)
		for _, b := range vecs {
			want := cosineDistOnePass(a, b)
			for _, got := range []float64{CosineDistNorms(a, b, na, SquaredNorm(b)), CosineDist(a, b)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("len %d·len %d: %v, one-pass CosineDist %v", len(a), len(b), got, want)
				}
			}
		}
	}
}
