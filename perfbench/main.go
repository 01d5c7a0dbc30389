// Command perfbench drives the maxsumdiv serving stack end to end and per
// layer. It builds the servers (and, on cluster workloads, a coordinator)
// in process, bulk-loads a seeded corpus over loopback HTTP, then runs
// closed-loop clients, one per CPU, each on its own keep-alive connection,
// sending a seeded op stream encoded before the clock starts. Every answer
// is checked; after the window a fixed set of verification queries is
// compared with the benchmark's own float64 greedy.
//
//	perfbench --workload tri-churn --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 traces the middle half
// of the window and not its outer quarters, reports the difference as
// tracing overhead, times the layer ladder on the final state and prints
// the per-layer metrics; its spans are written under
// .bench_build/perfbench/. The last line of
// standard output is the result object; a failed check makes the exit code
// non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"maxsumdiv/internal/server"
	"maxsumdiv/perfbench/stats"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// setupRepeats is how many times an untraced run sets the stack up; it
// reports the median. Only the last set-up serves the window.
const setupRepeats = 5

// warmUp is the unrecorded closed-loop traffic before the window, on the
// same streams.
const warmUp = 2 * time.Second

func emit(w io.Writer, v any) {
	b, _ := json.Marshal(v) // every value emitted is plain data
	fmt.Fprintln(w, string(b))
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: tri-churn or cluster-mixed")
	seed := fs.Uint64("seed", 1, "seed of the corpus and the op streams")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return 0, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 0, fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	traced := *trace == 1
	env := stamp()
	emit(stdout, map[string]any{"env": env, "workload": w.name, "seed": *seed})

	// Inputs, encoded streams and the clients' copies of the live set all
	// exist before the heap baseline.
	nClients := runtime.NumCPU()
	window := time.Duration(*seconds) * time.Second
	preOps := w.preRate * int((min(window, warmUp)+window)/time.Second)
	corpus := newCorpusGen(*seed, w.dim)
	sc := newSeedCorpus(corpus, *seed, w.n)
	known := &knownIDs{seedN: w.n}
	clients := make([]*client, nClients)
	for i := range clients {
		g := newOpGen(w, corpus, sc, *seed, i, nClients)
		clients[i] = newClient(i, newStream(g, preOps), known, sc, nClients)
		defer clients[i].tr.CloseIdleConnections()
	}

	setups := setupRepeats
	if traced {
		setups = 1
	}
	var setupS []float64
	for range setups - 1 {
		st, d, err := setUp(w, sc)
		if err != nil {
			return 0, err
		}
		setupS = append(setupS, d.Seconds())
		if err := st.close(); err != nil {
			return 0, err
		}
	}
	heap0 := liveHeap()
	st, d, err := setUp(w, sc)
	if err != nil {
		return 0, err
	}
	defer st.close()
	setupS = append(setupS, d.Seconds())
	// The bulk bodies were allocated before the baseline and must stay
	// live through the second reading, or their release would be
	// subtracted from the server's heap.
	heapPerItem := (float64(liveHeap()) - float64(heap0)) / float64(w.n)
	runtime.KeepAlive(sc)
	backendPerItem := backendBytesPerItem(st.stats())

	all := &tally{}
	all.merge(drive(clients, st.url, min(window, warmUp), time.Time{}, nil))

	tr := &tracer{t0: time.Now()}
	var win, untraced *tally
	var before, after []server.Stats
	var rt0, rt1 runtimeReading
	// Each timed phase starts right after a collection, so whether the
	// collector runs inside a phase does not depend on what came before.
	if traced {
		// The window runs untraced for a quarter, traced for a half, then
		// untraced for a quarter, so a host that drifts steadily over the
		// window charges both modes alike and their difference is the
		// tracing's own cost.
		untraced = &tally{span: window / 4}
		runtime.GC()
		untraced.merge(drive(clients, st.url, window/4, time.Time{}, nil))
		runtime.GC()
		before, rt0 = st.stats(), readRuntime()
		win = drive(clients, st.url, window/2, tr.t0, tr.id)
		rt1, after = readRuntime(), st.stats()
		tr.add(win.spans...)
		runtime.GC()
		untraced.merge(drive(clients, st.url, window/4, time.Time{}, nil))
		all.merge(untraced)
	} else {
		runtime.GC()
		before, rt0 = st.stats(), readRuntime()
		win = drive(clients, st.url, window, time.Time{}, nil)
		rt1, after = readRuntime(), st.stats()
	}
	all.merge(win)

	lc := newLiveCopy(clients)
	ratio, err := verify(clients[0].http, st.url, lc, all)
	if err != nil {
		return 0, err
	}
	for _, e := range all.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}

	e2e := func(t *tally) map[string]stats.MetricVal {
		return endToEnd(w, t, all, ratio, setupS, heapPerItem)
	}
	res := stats.Result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed}
	if traced {
		ladderVals, paths, err := runLadder(w, st, lc, tr, *seed)
		if err != nil {
			return 0, err
		}
		res.Metrics = perLayer(ladderVals, win, before, after, rt0, rt1, backendPerItem)
		overhead := tracingOverhead(e2e(untraced), e2e(win))
		self := make(map[string]float64)
		for _, path := range paths {
			for _, r := range stats.SelfTimes(path) {
				self[r.Name] = r.MS
			}
		}
		emit(stdout, map[string]any{"tracing_overhead": overhead, "ladder_self_ms": self})
		if err := writeTrace(w.name, *seed, env, tr.spans, self, overhead); err != nil {
			return 0, err
		}
	} else {
		res.Metrics = e2e(win)
		emit(stdout, map[string]any{"samples": sampleReport(w, win), "setup_s": setupS,
			"backend_bytes_per_item": backendPerItem, "late_ops": win.late})
	}
	emit(stdout, res)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// parts is how many sub-windows of length part a span splits into: at
// least one, and one when part is 0.
func parts(span, part time.Duration) int {
	if part <= 0 {
		return 1
	}
	return max(int(span/part), 1)
}

// subPercentile returns the median over the sub-windows of length part of
// span of the p-th percentile of the samples that started in each, and the
// fewest samples any sub-window kept beyond its percentile.
func subPercentile(xs []latSample, span, part time.Duration, p float64) (value float64, beyond int) {
	n := parts(span, part)
	split := make([][]float64, n)
	for _, x := range xs {
		i := min(max(int(x.at*time.Duration(n)/span), 0), n-1)
		split[i] = append(split[i], x.ms)
	}
	vals := make([]float64, n)
	beyond = math.MaxInt
	for i, part := range split {
		var b int
		vals[i], b = stats.Percentile(part, p)
		beyond = min(beyond, b)
	}
	return stats.Median(vals), beyond
}

func endToEnd(w *workload, win, all *tally, ratio float64, setupS []float64, heapPerItem float64) map[string]stats.MetricVal {
	qp50, _ := subPercentile(win.queryMS, win.span, w.queryPart, 50)
	qtail, _ := subPercentile(win.queryMS, win.span, w.queryPart, w.tail)
	mp50, _ := subPercentile(win.mutMS, win.span, w.mutationPart, 50)
	mtail, _ := subPercentile(win.mutMS, win.span, w.mutationPart, w.tail)
	return map[string]stats.MetricVal{
		"setup_s":             val(stats.Median(setupS), "s"),
		"query_p50_ms":        val(qp50, "ms"),
		"query_tail_ms":       val(qtail, "ms"),
		"mutation_p50_ms":     val(mp50, "ms"),
		"mutation_tail_ms":    val(mtail, "ms"),
		"ops_per_s":           val(stats.Median(win.rates), "1/s"),
		"cpu_ms_per_op":       val(stats.Median(win.cpuPerOp), "ms"),
		"success_frac":        val(float64(all.attempted-all.failed)/float64(all.attempted), "fraction"),
		"objective_ratio":     val(ratio, "ratio"),
		"heap_bytes_per_item": val(heapPerItem, "B"),
	}
}

func val(v float64, unit string) stats.MetricVal {
	return stats.MetricVal{Value: v, Unit: unit}
}

// tracingOverhead is traced minus untraced for every end-to-end metric the
// window determines.
func tracingOverhead(untraced, traced map[string]stats.MetricVal) map[string]float64 {
	out := make(map[string]float64)
	for _, name := range []string{"query_p50_ms", "query_tail_ms", "mutation_p50_ms", "mutation_tail_ms", "ops_per_s", "cpu_ms_per_op"} {
		out[name] = traced[name].Value - untraced[name].Value
	}
	return out
}

// latencyAt reads a latency at the median and every candidate tail
// percentile the way the metrics do; Beyond counts the samples beyond the
// percentile in the sub-window that kept fewest.
func latencyAt(xs []latSample, span, part time.Duration) stats.LatencyReport {
	r := stats.LatencyReport{N: len(xs), Value: map[string]float64{}, Beyond: map[string]int{}}
	for _, p := range append([]float64{50}, stats.TailCandidates...) {
		key := fmt.Sprintf("p%g", p)
		r.Value[key], r.Beyond[key] = subPercentile(xs, span, part, p)
	}
	return r
}

// sampleReport gives the sample counts behind every latency metric and the
// readings at every candidate tail percentile, which the steadiness tool
// uses to fix each workload's tail.
func sampleReport(w *workload, win *tally) map[string]any {
	return map[string]any{
		"tail":               w.tail,
		"query":              latencyAt(win.queryMS, win.span, w.queryPart),
		"mutation":           latencyAt(win.mutMS, win.span, w.mutationPart),
		"ops":                win.queries + win.mutations,
		"window_s":           win.elapsed.Seconds(),
		"ops_per_s_mean":     float64(win.queries+win.mutations) / win.elapsed.Seconds(),
		"cpu_ms_per_op_mean": float64(win.cpu.Nanoseconds()) / 1e6 / float64(win.queries+win.mutations),
	}
}

func backendBytesPerItem(stats []server.Stats) float64 {
	var bytes, items float64
	for _, s := range stats {
		bytes += float64(s.Corpus.ResidentBytes)
		items += float64(s.Corpus.Items)
	}
	if items == 0 {
		return 0
	}
	return bytes / items
}

func ratioOr0(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer assembles the per-layer metrics: the ladder's medians plus the
// servers' and the runtime's counters over the traced window.
func perLayer(ladder map[string]float64, win *tally, before, after []server.Stats, rt0, rt1 runtimeReading, backendPerItem float64) map[string]stats.MetricVal {
	var hits, misses, coalesced, solo, epochs, queries, shed, swaps, flushes float64
	for i := range after {
		a, b := after[i], before[i]
		if a.Corpus.RowCache != nil && b.Corpus.RowCache != nil {
			hits += float64(a.Corpus.RowCache.Hits - b.Corpus.RowCache.Hits)
			misses += float64(a.Corpus.RowCache.Misses - b.Corpus.RowCache.Misses)
		}
		coalesced += float64(a.Corpus.QueriesCoalesced - b.Corpus.QueriesCoalesced)
		solo += float64(a.Corpus.QueriesSolo - b.Corpus.QueriesSolo)
		epochs += float64(a.Corpus.Epoch - b.Corpus.Epoch)
		queries += float64(a.Corpus.Queries - b.Corpus.Queries)
		shed += float64(a.MutationsShed - b.MutationsShed)
		for j := range a.Shards {
			swaps += float64(a.Shards[j].Swaps - b.Shards[j].Swaps)
			flushes += float64(a.Shards[j].Flushes - b.Shards[j].Flushes)
		}
	}
	ops := float64(win.queries + win.mutations)
	out := map[string]stats.MetricVal{
		"metric.row_cache_hit_frac":     val(ratioOr0(hits, hits+misses), "fraction"),
		"server.coalesced_frac":         val(ratioOr0(coalesced, coalesced+solo), "fraction"),
		"server.epochs_per_query":       val(ratioOr0(epochs, queries), "ratio"),
		"server.shed_frac":              val(ratioOr0(shed, float64(win.mutations)), "fraction"),
		"server.backend_bytes_per_item": val(backendPerItem, "B"),
		"server.swaps_per_flush":        val(ratioOr0(swaps, flushes), "ratio"),
		"cluster.partial_frac":          val(ratioOr0(float64(win.partial), float64(win.queries)), "fraction"),
		"runtime.alloc_bytes_per_op":    val(ratioOr0(float64(rt1.allocBytes-rt0.allocBytes), ops), "B"),
		"runtime.gc_cpu_frac":           val(ratioOr0(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "fraction"),
	}
	for name, v := range ladder {
		out[name] = val(v, layerUnits[name])
	}
	return out
}

// layerUnits are the units of the ladder's timing rungs.
var layerUnits = map[string]string{
	"metric.dot_ns_per_coord":      "ns",
	"metric.row_ms":                "ms",
	"metric.tri_append_us":         "us",
	"metric.tri_remove_us":         "us",
	"core.solve_ms":                "ms",
	"core.multi_solve_ms":          "ms",
	"engine.fanout_speedup":        "ratio",
	"index.query_ms":               "ms",
	"index.prefiltered_query_ms":   "ms",
	"server.diversify_ms":          "ms",
	"server.handler_query_ms":      "ms",
	"server.http_query_ms":         "ms",
	"server.handler_mutation_us":   "us",
	"server.flush_us_per_op":       "us",
	"dynamic.insert_us":            "us",
	"dynamic.delete_us":            "us",
	"cluster.member_query_ms":      "ms",
	"cluster.scatter_ms":           "ms",
	"cluster.merge_ms":             "ms",
	"cluster.coordinator_query_ms": "ms",
}

// writeTrace writes the traced run's spans and ladder report under
// .bench_build/perfbench/ in the working directory.
func writeTrace(workload string, seed uint64, env envStamp, spans []span, self, overhead map[string]float64) error {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "env": env, "spans": spans,
		"ladder_self_ms": self, "tracing_overhead": overhead,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed)), b, 0o644)
}
