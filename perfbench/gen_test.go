package main

import (
	"bytes"
	"testing"
)

// streamBytes encodes the first n ops of every client's stream.
func streamBytes(w *workload, seed uint64, clients, n int) [][]byte {
	corpus := newCorpusGen(seed, w.dim)
	sc := newSeedCorpus(corpus, seed, w.n)
	out := make([][]byte, clients+1)
	for _, b := range sc.batches {
		out[clients] = append(out[clients], b...)
	}
	for c := range clients {
		s := newStream(newOpGen(w, corpus, sc, seed, c, clients), n/2)
		for range n {
			o := s.next()
			out[c] = append(out[c], o.method...)
			out[c] = append(out[c], o.path...)
			out[c] = append(out[c], o.body...)
			out[c] = append(out[c], '\n')
		}
	}
	return out
}

func smallWorkload(name string) *workload {
	w := *mustWorkload(name)
	w.n = 300
	return &w
}

func mustWorkload(name string) *workload {
	w, err := workloadByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

func TestStreamsDeterministic(t *testing.T) {
	for _, name := range []string{"tri-churn", "cluster-mixed"} {
		w := smallWorkload(name)
		a := streamBytes(w, 7, 2, 400)
		b := streamBytes(w, 7, 2, 400)
		c := streamBytes(w, 8, 2, 400)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: stream %d differs between two runs of seed 7", name, i)
			}
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s: stream %d is the same for seeds 7 and 8", name, i)
			}
		}
		// The second client's stream differs from the first's.
		if bytes.Equal(a[0], a[1]) {
			t.Errorf("%s: both clients got the same stream", name)
		}
	}
}

// Ops generated on demand continue the pre-encoded sequence exactly.
func TestStreamOnDemandContinues(t *testing.T) {
	w := smallWorkload("tri-churn")
	a := streamBytes(w, 3, 2, 400)
	corpus := newCorpusGen(3, w.dim)
	sc := newSeedCorpus(corpus, 3, w.n)
	s := newStream(newOpGen(w, corpus, sc, 3, 0, 2), 400)
	var b []byte
	for range 400 {
		o := s.next()
		b = append(append(append(append(b, o.method...), o.path...), o.body...), '\n')
	}
	if !bytes.Equal(a[0], b) || s.late != 0 {
		t.Errorf("fully pre-encoded stream differs from a half on-demand one (late=%d)", s.late)
	}
}

// Clients touch only their own ids, and churn holds each client's item
// count within the band around its start.
func TestStreamOwnershipAndBand(t *testing.T) {
	w := smallWorkload("tri-churn")
	corpus := newCorpusGen(5, w.dim)
	sc := newSeedCorpus(corpus, 5, w.n)
	for c := range 2 {
		g := newOpGen(w, corpus, sc, 5, c, 2)
		owned := make(map[string]bool)
		for _, id := range g.live {
			owned[id] = true
		}
		start := len(owned)
		for range 5000 {
			o := g.next()
			switch o.kind {
			case opInsert:
				owned[o.id] = true
			case opDelete, opRewrite:
				if !owned[o.id] {
					t.Fatalf("client %d mutates %q, which it does not own", c, o.id)
				}
				if o.kind == opDelete {
					delete(owned, o.id)
				}
			}
			if d := len(owned) - start; d < -churnBand-1 || d > churnBand+1 {
				t.Fatalf("client %d drifted to %d items from %d", c, len(owned), start)
			}
		}
	}
}
