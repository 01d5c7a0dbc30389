package main

import (
	"bytes"
	"math/rand/v2"
	"strconv"
)

// itemRec is one item as the benchmark knows it: exactly the values the
// server parses from the wire.
type itemRec struct {
	weight float64
	vec    []float64
}

// round32 returns the float64 the server reads back for x: the wire carries
// the shortest decimal that round-trips float32(x), so float64 backends see
// this value and float32 backends see float32(x).
func round32(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', -1, 32), 64)
	return v
}

// corpusGen draws items from a fixed mixture of Gaussian clusters, so that
// distances vary and the diversity term has structure to exploit.
type corpusGen struct {
	centers [][]float64
}

const mixtureClusters = 32

func newCorpusGen(seed uint64, dim int) *corpusGen {
	rng := rand.New(rand.NewPCG(seed, 0))
	g := &corpusGen{centers: make([][]float64, mixtureClusters)}
	for c := range g.centers {
		v := make([]float64, dim)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		g.centers[c] = v
	}
	return g
}

func (g *corpusGen) item(rng *rand.Rand) itemRec {
	c := g.centers[rng.IntN(len(g.centers))]
	v := make([]float64, len(c))
	for k := range v {
		v[k] = round32(c[k] + 0.6*rng.NormFloat64())
	}
	return itemRec{weight: round32(rng.Float64()), vec: v}
}

func appendFloat(b []byte, x float64) []byte {
	return strconv.AppendFloat(b, x, 'g', -1, 32)
}

// appendItem encodes one item in the POST /items wire form.
func appendItem(b []byte, id string, r itemRec) []byte {
	b = append(b, `{"id":"`...)
	b = append(b, id...)
	b = append(b, `","weight":`...)
	b = appendFloat(b, r.weight)
	b = append(b, `,"vector":[`...)
	for k, x := range r.vec {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, "]}"...)
}

// queryBody encodes a POST /diversify request.
func queryBody(k int, lambda float64, scope string, vectors bool) []byte {
	b := append([]byte(`{"k":`), strconv.Itoa(k)...)
	b = append(b, `,"lambda":`...)
	b = strconv.AppendFloat(b, lambda, 'g', -1, 64)
	if scope != "" {
		b = append(b, `,"scope":"`...)
		b = append(b, scope...)
		b = append(b, '"')
	}
	if vectors {
		b = append(b, `,"include_vectors":true`...)
	}
	return append(b, '}')
}

// seedCorpus is the corpus bulk-loaded before the clock starts: item j has
// id "s<j>" and belongs to client j mod clients.
type seedCorpus struct {
	ids   []string
	items []itemRec
	// batches are the pre-encoded POST /items bodies of bulkBatch items.
	batches [][]byte
}

const bulkBatch = 1000

func newSeedCorpus(g *corpusGen, seed uint64, n int) *seedCorpus {
	rng := rand.New(rand.NewPCG(seed, 1))
	sc := &seedCorpus{ids: make([]string, n), items: make([]itemRec, n)}
	for j := range n {
		sc.ids[j] = "s" + strconv.Itoa(j)
		sc.items[j] = g.item(rng)
	}
	for lo := 0; lo < n; lo += bulkBatch {
		hi := min(lo+bulkBatch, n)
		b := []byte{'['}
		for j := lo; j < hi; j++ {
			if j > lo {
				b = append(b, ',')
			}
			b = appendItem(b, sc.ids[j], sc.items[j])
		}
		sc.batches = append(sc.batches, append(b, ']'))
	}
	return sc
}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
	opRewrite
)

// op is one pre-encoded client request plus what the client needs to check
// its answer and track its own items.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	id     string  // mutated id
	rec    itemRec // inserted or rewritten item
	k      int     // query cardinality
}

// queryLambdas are the trade-offs client queries draw from uniformly.
var queryLambdas = []float64{0.5, 1, 2}

// queryK is the cardinality of every client query.
const queryK = 10

// opGen is one client's deterministic op stream. It tracks the ids the
// client owns as the stream will leave them, assuming every op succeeds (a
// run in which one fails is failed), so the stream depends only on the seed
// and the client index, never on how clients interleave.
type opGen struct {
	w      *workload
	client int
	corpus *corpusGen
	rng    *rand.Rand
	live   []string
	pos    map[string]int
	target int
	fresh  int
	// buf is reused to encode each item, so a stored body holds only its
	// own bytes and not the spare capacity of append growth.
	buf []byte
}

func newOpGen(w *workload, corpus *corpusGen, sc *seedCorpus, seed uint64, client, clients int) *opGen {
	g := &opGen{
		w: w, client: client, corpus: corpus,
		rng: rand.New(rand.NewPCG(seed, uint64(2+client))),
		pos: make(map[string]int),
	}
	for j := client; j < len(sc.ids); j += clients {
		g.add(sc.ids[j])
	}
	g.target = len(g.live)
	return g
}

func (g *opGen) add(id string) {
	g.pos[id] = len(g.live)
	g.live = append(g.live, id)
}

func (g *opGen) remove(id string) {
	i := g.pos[id]
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.pos[last] = i
	g.live = g.live[:len(g.live)-1]
	delete(g.pos, id)
}

// churnBand is how far a client's owned-item count may drift from its
// starting count before the generator forces an insert or a delete.
const churnBand = 8

func (g *opGen) next() op {
	if g.rng.Float64() < g.w.queryFrac {
		lambda := queryLambdas[g.rng.IntN(len(queryLambdas))]
		scope := ""
		if g.rng.Float64() < g.w.maintainedFrac {
			scope = "maintained"
		}
		return op{kind: opQuery, method: "POST", path: "/diversify", k: queryK,
			body: queryBody(queryK, lambda, scope, false)}
	}
	kind := opKind(1 + g.rng.IntN(3))
	switch {
	case len(g.live) < g.target-churnBand:
		kind = opInsert
	case len(g.live) > g.target+churnBand:
		kind = opDelete
	}
	switch kind {
	case opInsert:
		id := "c" + strconv.Itoa(g.client) + "-" + strconv.Itoa(g.fresh)
		g.fresh++
		g.add(id)
		rec := g.corpus.item(g.rng)
		return op{kind: opInsert, method: "POST", path: "/items", id: id, rec: rec,
			body: g.encode(id, rec)}
	case opDelete:
		id := g.live[g.rng.IntN(len(g.live))]
		g.remove(id)
		return op{kind: opDelete, method: "DELETE", path: "/items/" + id, id: id}
	default:
		id := g.live[g.rng.IntN(len(g.live))]
		rec := g.corpus.item(g.rng)
		return op{kind: opRewrite, method: "POST", path: "/items", id: id, rec: rec,
			body: g.encode(id, rec)}
	}
}

func (g *opGen) encode(id string, rec itemRec) []byte {
	g.buf = appendItem(g.buf[:0], id, rec)
	return bytes.Clone(g.buf)
}

// stream hands a client its ops in order: first the ones encoded before the
// clock started, then, if a run outlasts them, ops generated on demand from
// the same generator, so the sequence is the same either way.
type stream struct {
	pre  []op
	i    int
	gen  *opGen
	late int // ops generated during the run
}

func newStream(g *opGen, n int) *stream {
	s := &stream{gen: g, pre: make([]op, n)}
	for i := range s.pre {
		s.pre[i] = g.next()
	}
	return s
}

func (s *stream) next() op {
	if s.i < len(s.pre) {
		s.i++
		return s.pre[s.i-1]
	}
	s.late++
	return s.gen.next()
}
