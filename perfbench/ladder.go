package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"maxsumdiv"
	"maxsumdiv/internal/cluster"
	"maxsumdiv/internal/core"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/server"
	"maxsumdiv/internal/setfunc"
	"maxsumdiv/perfbench/stats"
)

// The ladder times the same queries at each layer's public entry point on
// the quiescent final state. Rungs run innermost first within a round, and
// the rounds cycle through the query λs; each rung reports its median.
const (
	ladderRounds = 9
	// mutationRounds is how many single-item inserts each mutation rung
	// and the Tri and Dynamic rungs time.
	mutationRounds = 100
	flushBatch     = 128
	flushRounds    = 5
	// triN is tri-churn's corpus size: the Tri rungs run at it on every
	// workload, and the Dynamic rungs at triN/8, one shard's share. At
	// 1 024 points the float64 triangle takes 4 MiB. Larger triangles
	// compete with other tenants for the shared last-level cache, and
	// tri-churn's runs spread wider: at 4 096 about twice as wide as at
	// 2 048 (records/tri-churn-n.json), and at 2 048 about 1.5 times as
	// wide as at 1 024 (records/tri-churn-n1024.json).
	triN = 1024
	// dotDim is the dimension of the dot-kernel rung.
	dotDim = 64
)

// tracer hands out span ids and keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func (t *tracer) id() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// ladder collects rung samples and their spans.
type ladder struct {
	tr      *tracer
	samples map[string][]float64
	root    uint64
}

// rung runs f once as the named rung of the current round, in unit
// (time.Millisecond or time.Microsecond).
func (l *ladder) rung(name string, unit time.Duration, f func() error) error {
	start := time.Now()
	err := f()
	stop := time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.samples[name] = append(l.samples[name], float64(stop.Sub(start))/float64(unit))
	l.tr.add(span{ID: l.tr.id(), Parent: l.root, Name: name,
		Start: start.Sub(l.tr.t0).Nanoseconds(), End: stop.Sub(l.tr.t0).Nanoseconds()})
	return nil
}

func (l *ladder) round(name string) {
	l.root = l.tr.id()
	now := time.Since(l.tr.t0).Nanoseconds()
	l.tr.add(span{ID: l.root, Name: name, Start: now, End: now})
}

// localCopy returns the part of the final live set held by the first
// server: all of it on one node, the ring owner's share in a cluster.
func localCopy(w *workload, lc *liveCopy) (*liveCopy, error) {
	if w.members == 0 {
		return lc, nil
	}
	names := make([]string, w.members)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	ring, err := cluster.NewRing(names, cluster.DefaultVNodes, cluster.DefaultSeed)
	if err != nil {
		return nil, err
	}
	out := &liveCopy{index: make(map[string]int)}
	for i, id := range lc.ids {
		if ring.Owner(id) != 0 {
			continue
		}
		out.index[id] = len(out.ids)
		out.ids = append(out.ids, id)
		out.w = append(out.w, lc.w[i])
		out.vec = append(out.vec, lc.vec[i])
		out.norm = append(out.norm, lc.norm[i])
	}
	return out, nil
}

// runLadder measures every per-layer timing rung and returns the medians,
// plus the nested query paths in rung order for the self-time report.
func runLadder(w *workload, st *stack, lc *liveCopy, tr *tracer, seed uint64) (map[string]float64, [][]stats.Rung, error) {
	ctx := context.Background()
	local, err := localCopy(w, lc)
	if err != nil {
		return nil, nil, err
	}
	l := &ladder{tr: tr, samples: make(map[string][]float64)}
	out := make(map[string]float64)

	out["metric.dot_ns_per_coord"] = dotRung(seed)

	store, err := metric.NewVecStoreFromVectors(metric.KindVecF32, local.vec)
	if err != nil {
		return nil, nil, err
	}
	// rowStore serves only the row rung, so no other rung warms its cache.
	rowStore, err := metric.NewVecStoreFromVectors(metric.KindVecF32, local.vec)
	if err != nil {
		return nil, nil, err
	}
	mod, err := setfunc.NewModular(local.w)
	if err != nil {
		return nil, nil, err
	}
	pool := engine.New(2)
	ix, err := maxsumdiv.NewVectorIndex(local.vec, local.w, maxsumdiv.WithLambda(serverLambda))
	if err != nil {
		return nil, nil, err
	}
	srv := st.servers[0]
	handler := srv.Handler()
	c, ctr := newHTTPClient()
	defer ctr.CloseIdleConnections()
	fanClients := make([]*http.Client, len(st.members))
	for i := range fanClients {
		var tr *http.Transport
		fanClients[i], tr = newHTTPClient()
		defer tr.CloseIdleConnections()
	}

	// A single-node workload gets a one-member coordinator for the
	// cluster rungs, so every workload reports every rung.
	coordURL := st.url
	if w.members == 0 {
		coord, coordTr, err := newCoordinator(st.members)
		if err != nil {
			return nil, nil, err
		}
		defer coordTr.CloseIdleConnections()
		front, err := listen(coord.Handler())
		if err != nil {
			return nil, nil, err
		}
		defer front.close()
		coordURL = front.url
	}

	fanK := int(math.Ceil(queryK * cluster.DefaultOverfetch))
	for r := range ladderRounds {
		lambda := queryLambdas[r%len(queryLambdas)]
		l.round("ladder.query")
		obj, err := core.NewObjective(mod, lambda, store)
		if err != nil {
			return nil, nil, err
		}
		steps := []struct {
			name string
			f    func() error
		}{
			{"metric.row_ms", func() error {
				// A point not read before, so the row is computed.
				u := (r * 7919) % len(local.ids)
				rows := rowStore.Rows([]int{u}, nil)
				if len(rows) != 1 || len(rows[0]) != len(local.ids) {
					return fmt.Errorf("row of length %d", len(rows[0]))
				}
				return nil
			}},
			{"core.solve_nopool_ms", func() error {
				_, err := core.Solve(obj, core.Spec{Algo: core.AlgoGreedy, K: queryK})
				return err
			}},
			{"core.solve_ms", func() error {
				_, err := core.Solve(obj, core.Spec{Algo: core.AlgoGreedy, K: queryK, Pool: pool})
				return err
			}},
			{"core.multi_solve_ms", func() error {
				targets := make([]core.LambdaTarget, len(queryLambdas))
				for i, lam := range queryLambdas {
					targets[i] = core.LambdaTarget{Lambda: lam, K: queryK}
				}
				_, err := core.SolveMultiTrace(obj, core.Spec{Algo: core.AlgoGreedy, Pool: pool}, targets)
				return err
			}},
			{"index.query_ms", func() error {
				_, err := ix.Query(ctx, maxsumdiv.Query{K: queryK, Lambda: &lambda})
				return err
			}},
			{"index.prefiltered_query_ms", func() error {
				_, err := ix.Query(ctx, maxsumdiv.Query{K: queryK, Lambda: &lambda, Candidates: maxsumdiv.CandidatesPreFiltered})
				return err
			}},
			{"server.diversify_ms", func() error {
				_, err := srv.Diversify(ctx, server.DiversifyRequest{K: queryK, Lambda: &lambda})
				return err
			}},
			{"server.handler_query_ms", func() error {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("POST", "/diversify", bytes.NewReader(queryBody(queryK, lambda, "", false))))
				return wantStatus(rec.Code, rec.Body.Bytes())
			}},
			{"server.http_query_ms", func() error {
				code, body, err := do(c, "POST", st.members[0].url+"/diversify", queryBody(queryK, lambda, "", false))
				if err != nil {
					return err
				}
				return wantStatus(code, body)
			}},
			{"cluster.member_query_ms", func() error {
				code, body, err := do(c, "POST", st.members[0].url+"/diversify", queryBody(fanK, lambda, "", true))
				if err != nil {
					return err
				}
				return wantStatus(code, body)
			}},
		}
		for _, s := range steps {
			if err := l.rung(s.name, time.Millisecond, s.f); err != nil {
				return nil, nil, err
			}
		}
		var replies []*server.DiversifyResponse
		if err := l.rung("cluster.scatter_ms", time.Millisecond, func() error {
			replies, err = scatter(st.members, fanClients, queryBody(fanK, lambda, "", true))
			return err
		}); err != nil {
			return nil, nil, err
		}
		if err := l.rung("cluster.merge_ms", time.Millisecond, func() error { return merge(replies, lambda) }); err != nil {
			return nil, nil, err
		}
		if err := l.rung("cluster.coordinator_query_ms", time.Millisecond, func() error {
			code, body, err := do(c, "POST", coordURL+"/diversify", queryBody(queryK, lambda, "", false))
			if err != nil {
				return err
			}
			return wantStatus(code, body)
		}); err != nil {
			return nil, nil, err
		}
	}
	if err := triRungs(l, local, seed); err != nil {
		return nil, nil, err
	}
	if err := dynamicRungs(l, local, seed); err != nil {
		return nil, nil, err
	}
	if err := mutationRungs(l, w, srv, handler, seed); err != nil {
		return nil, nil, err
	}

	for name, xs := range l.samples {
		out[name] = stats.Median(xs)
	}
	out["engine.fanout_speedup"] = out["core.solve_nopool_ms"] / out["core.solve_ms"]
	delete(out, "core.solve_nopool_ms")
	// Self times are taken only along rungs that nest: each calls the one
	// below it on the same server with the same k. core.Solve runs on an
	// unsharded copy of the store and a member query asks for k′ with
	// vectors, so neither starts or extends the server's path.
	rungs := func(names ...string) []stats.Rung {
		var path []stats.Rung
		for _, name := range names {
			path = append(path, stats.Rung{Name: name, MS: out[name]})
		}
		return path
	}
	paths := [][]stats.Rung{
		rungs("server.diversify_ms", "server.handler_query_ms", "server.http_query_ms"),
		append(rungs("cluster.member_query_ms", "cluster.scatter_ms"),
			stats.Rung{Name: "cluster.scatter_plus_merge_ms", MS: out["cluster.scatter_ms"] + out["cluster.merge_ms"]},
			stats.Rung{Name: "cluster.coordinator_query_ms", MS: out["cluster.coordinator_query_ms"]}),
	}
	return out, paths, nil
}

func wantStatus(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	return nil
}

var dotSink float32

// dotRung times metric.DotF32 over all pairs of a fixed set of vectors and
// returns the median nanoseconds per coordinate.
func dotRung(seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, 7))
	vecs := make([][]float32, 128)
	for i := range vecs {
		v := make([]float32, dotDim)
		for k := range v {
			v[k] = float32(rng.NormFloat64())
		}
		vecs[i] = v
	}
	var samples []float64
	for range ladderRounds {
		t0 := time.Now()
		var s float32
		for rep := 0; rep < 4; rep++ {
			for _, a := range vecs {
				for _, b := range vecs {
					s += metric.DotF32(a, b)
				}
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(4*len(vecs)*len(vecs)*dotDim))
		dotSink = s
	}
	return stats.Median(samples)
}

// scatter queries every member at once over its own kept-alive client, as
// the coordinator does, and returns when the slowest has answered.
func scatter(members []*listener, clients []*http.Client, body []byte) ([]*server.DiversifyResponse, error) {
	out := make([]*server.DiversifyResponse, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, b, err := do(clients[i], "POST", m.url+"/diversify", body)
			if err == nil {
				err = wantStatus(code, b)
			}
			if err == nil {
				out[i] = &server.DiversifyResponse{}
				err = json.Unmarshal(b, out[i])
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// merge re-solves the union of the members' candidates the way the
// coordinator does: an Index over cosine distances, then a greedy query.
func merge(replies []*server.DiversifyResponse, lambda float64) error {
	var items []maxsumdiv.Item
	var vecs [][]float64
	for _, r := range replies {
		for _, it := range r.Items {
			items = append(items, maxsumdiv.Item{ID: it.ID, Weight: it.Weight, Vector: it.Vector})
			vecs = append(vecs, it.Vector)
		}
	}
	ix, err := maxsumdiv.NewIndex(items,
		maxsumdiv.WithDistanceFunc(func(i, j int) float64 { return metric.CosineDist(vecs[i], vecs[j]) }),
		maxsumdiv.WithLambda(lambda))
	if err != nil {
		return err
	}
	_, err = ix.Query(context.Background(), maxsumdiv.Query{K: queryK, ClampK: true})
	return err
}

// triRungs times Tri.AppendRow and Tri.RemoveSwap on a float64 triangle of
// triN points built from the local vectors.
func triRungs(l *ladder, local *liveCopy, seed uint64) error {
	n := min(triN, len(local.ids))
	tri := metric.NewTriF64()
	mirror := make([]int, 0, n+1) // local index of each triangle point
	row := make([]float64, 0, n+1)
	appendPoint := func(src int, timed bool) error {
		row = row[:0]
		for _, j := range mirror {
			row = append(row, local.dist(src, j))
		}
		var err error
		if timed {
			err = l.rung("metric.tri_append_us", time.Microsecond, func() error { _, err := tri.AppendRow(row); return err })
		} else {
			_, err = tri.AppendRow(row)
		}
		mirror = append(mirror, src)
		return err
	}
	for i := range n {
		if err := appendPoint(i, false); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewPCG(seed, 8))
	for i := range mutationRounds {
		l.round("ladder.tri")
		if err := appendPoint((i*31)%len(local.ids), true); err != nil {
			return err
		}
		u := rng.IntN(len(mirror))
		if err := l.rung("metric.tri_remove_us", time.Microsecond, func() error { return tri.RemoveSwap(u) }); err != nil {
			return err
		}
		mirror[u] = mirror[len(mirror)-1]
		mirror = mirror[:len(mirror)-1]
	}
	return nil
}

// dynamicRungs times Dynamic.Insert and Dynamic.Delete, each followed by the
// read that applies its deferred maintenance, on a session over triN/8
// local items, one shard's share of tri-churn's corpus.
func dynamicRungs(l *ladder, local *liveCopy, seed uint64) error {
	n := min(triN/8, len(local.ids))
	ix, err := maxsumdiv.NewVectorIndex(local.vec[:n], local.w[:n], maxsumdiv.WithLambda(serverLambda))
	if err != nil {
		return err
	}
	sol, err := ix.Query(context.Background(), maxsumdiv.Query{K: 8})
	if err != nil {
		return err
	}
	dyn, err := ix.NewDynamic(sol.Indices)
	if err != nil {
		return err
	}
	mirror := make([]int, n)
	for i := range mirror {
		mirror[i] = i
	}
	rng := rand.New(rand.NewPCG(seed, 9))
	dists := make([]float64, 0, n+1)
	for i := range mutationRounds {
		l.round("ladder.dynamic")
		src := (n + i*31) % len(local.ids)
		dists = dists[:0]
		for _, j := range mirror {
			dists = append(dists, local.dist(src, j))
		}
		// Each rung ends with a read, which runs the solver-state rebuild
		// and the selection refill that Insert and Delete defer, so it
		// times an update's whole cost.
		if err := l.rung("dynamic.insert_us", time.Microsecond, func() error {
			_, err := dyn.Insert(fmt.Sprintf("dyn-%d", i), local.w[src], dists)
			dynSink = dyn.Value()
			return err
		}); err != nil {
			return err
		}
		mirror = append(mirror, src)
		u := rng.IntN(len(mirror))
		if err := l.rung("dynamic.delete_us", time.Microsecond, func() error {
			err := dyn.Delete(u)
			dynSink = dyn.Value()
			return err
		}); err != nil {
			return err
		}
		mirror[u] = mirror[len(mirror)-1]
		mirror = mirror[:len(mirror)-1]
	}
	return nil
}

var dynSink float64

// mutationRungs runs last: they insert fresh items into the first server.
// One rung times the handler on a single-item POST /items; the other times
// Server.Flush after flushBatch such inserts, per insert.
func mutationRungs(l *ladder, w *workload, srv *server.Server, handler http.Handler, seed uint64) error {
	g := newCorpusGen(seed, w.dim)
	rng := rand.New(rand.NewPCG(seed, 10))
	next := 0
	post := func() error {
		body := appendItem(nil, fmt.Sprintf("ladder-%d", next), g.item(rng))
		next++
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", "/items", bytes.NewReader(body)))
		return wantStatus(rec.Code, rec.Body.Bytes())
	}
	for range mutationRounds {
		l.round("ladder.mutation")
		if err := l.rung("server.handler_mutation_us", time.Microsecond, post); err != nil {
			return err
		}
	}
	if err := srv.Flush(); err != nil {
		return err
	}
	for range flushRounds {
		l.round("ladder.flush")
		for range flushBatch {
			if err := post(); err != nil {
				return err
			}
		}
		if err := l.rung("server.flush_us_per_op", time.Microsecond, srv.Flush); err != nil {
			return err
		}
	}
	xs := l.samples["server.flush_us_per_op"]
	for i := range xs {
		xs[i] /= flushBatch
	}
	return nil
}
