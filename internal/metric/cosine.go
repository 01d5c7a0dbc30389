package metric

import (
	"fmt"
	"math"
)

// Cosine is the cosine *distance* 1 − cos(u,v) over feature vectors, the
// document-to-document distance the paper's LETOR experiments use
// ("a metric distance function given by the cosine similarity between the
// feature vectors", Section 7.2). Cosine distance violates the triangle
// inequality in general; on the clustered, non-negative feature vectors of
// the LETOR-like workload the violations are bounded, and the paper's
// algorithms only consume pairwise sums. For a true metric over the same
// geometry use Angular.
type Cosine struct {
	vecs  [][]float64
	norms []float64
}

// NewCosine precomputes vector norms. Zero vectors get distance 1 to
// everything (cosine similarity 0 by convention), matching common IR
// practice. It rejects ragged input and non-finite coordinates.
func NewCosine(vecs [][]float64) (*Cosine, error) {
	c := &Cosine{vecs: vecs, norms: make([]float64, len(vecs))}
	dim := -1
	for i, v := range vecs {
		if dim == -1 {
			dim = len(v)
		} else if len(v) != dim {
			return nil, fmt.Errorf("metric: vector %d has dim %d, want %d", i, len(v), dim)
		}
		var s float64
		for k, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("metric: vector %d coordinate %d is %g", i, k, x)
			}
			s += x * x
		}
		c.norms[i] = math.Sqrt(s)
	}
	return c, nil
}

// Len returns the number of vectors.
func (c *Cosine) Len() int { return len(c.vecs) }

// Similarity returns cos(i, j) ∈ [-1, 1], or 0 if either vector is zero.
func (c *Cosine) Similarity(i, j int) float64 {
	if c.norms[i] == 0 || c.norms[j] == 0 {
		return 0
	}
	a, b := c.vecs[i], c.vecs[j]
	var dot float64
	for k := range a {
		dot += a[k] * b[k]
	}
	s := dot / (c.norms[i] * c.norms[j])
	// Clamp floating-point drift so downstream acos stays defined.
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return s
}

// Distance returns 1 − cos(i, j).
func (c *Cosine) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return 1 - c.Similarity(i, j)
}

var _ Metric = (*Cosine)(nil)

// CosineDist returns the cosine distance 1 − cos(a, b) between two raw
// vectors, with the same zero-vector convention as Cosine (distance 1).
// Serving layers use it to compute a new item's distances to a live item set
// without rebuilding a Cosine over the whole collection.
//
// Precision contract: CosineDist computes in float64 and is the reference
// value every other cosine path is bounded against. The blocked float32
// kernels (MaterializeF32) and the vec-f32 backend (VecStore) round
// coordinates to float32 and agree with it within ~1e-6 absolute on
// unit-scale vectors; the vec-int8 backend additionally quantizes each
// coordinate to 1/127 of the item's largest magnitude, bounding its error by
// O(√dim/127) absolute. TestCosineDistPrecisionContract pins all four paths
// against this reference.
func CosineDist(a, b []float64) float64 {
	return CosineDistNorms(a, b, SquaredNorm(a), SquaredNorm(b))
}

// SquaredNorm returns Σ x² over v, the norm term CosineDist sums for each
// of its vectors.
func SquaredNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// CosineDistNorms is CosineDist with both vectors' SquaredNorm already
// known — bit-identical to CosineDist(a, b) when na = SquaredNorm(a) and
// nb = SquaredNorm(b). Callers computing one vector's distances to many
// keep each stored vector's norm and compute the new one's once, leaving
// the dot product as the only O(d) pass per pair.
func CosineDistNorms(a, b []float64, na, nb float64) float64 {
	var dot float64
	m := len(a)
	if len(b) < m {
		m = len(b) // mismatched dims: missing coordinates contribute 0
	}
	for k := 0; k < m; k++ {
		dot += a[k] * b[k]
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

// Angular wraps the same vectors as Cosine but returns the normalized angle
// arccos(cos(u,v))/π ∈ [0,1], which is a true metric on the unit sphere.
type Angular struct {
	c *Cosine
}

// NewAngular builds the angular metric over the given vectors.
func NewAngular(vecs [][]float64) (*Angular, error) {
	c, err := NewCosine(vecs)
	if err != nil {
		return nil, err
	}
	return &Angular{c: c}, nil
}

// Len returns the number of vectors.
func (a *Angular) Len() int { return a.c.Len() }

// Distance returns arccos(cos(i,j))/π.
func (a *Angular) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return math.Acos(a.c.Similarity(i, j)) / math.Pi
}

var _ Metric = (*Angular)(nil)
