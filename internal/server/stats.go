package server

import (
	"sort"
	"sync"
	"time"
)

// latencyRingSize bounds the per-recorder sample window used for the
// percentile estimates (power of two; ~4 KB per recorder).
const latencyRingSize = 512

// LatencyRecorder aggregates request latencies: exact count/mean/max plus
// percentiles estimated over a sliding window of the most recent samples.
// The zero value is ready to use. Exported so other serving layers (the
// cluster coordinator) reuse the same percentile accounting /stats reports.
type LatencyRecorder struct {
	mu    sync.Mutex
	count int64
	sum   time.Duration
	max   time.Duration
	ring  [latencyRingSize]time.Duration
	fill  int // how much of ring is valid
	next  int // next write position
}

// Record folds one request latency into the recorder.
func (l *LatencyRecorder) Record(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	l.ring[l.next] = d
	l.next = (l.next + 1) & (latencyRingSize - 1)
	if l.fill < latencyRingSize {
		l.fill++
	}
}

// LatencyStats is one recorder's snapshot, all durations in milliseconds.
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Snapshot summarizes the recorded latencies.
func (l *LatencyRecorder) Snapshot() LatencyStats {
	l.mu.Lock()
	window := make([]time.Duration, l.fill)
	copy(window, l.ring[:l.fill])
	count, sum, max := l.count, l.sum, l.max
	l.mu.Unlock()

	out := LatencyStats{Count: count, MaxMS: ms(max)}
	if count > 0 {
		out.MeanMS = ms(sum) / float64(count)
	}
	if len(window) > 0 {
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		out.P50MS = ms(percentile(window, 0.50))
		out.P95MS = ms(percentile(window, 0.95))
		out.P99MS = ms(percentile(window, 0.99))
	}
	return out
}

// percentile reads the q-quantile from an ascending-sorted window.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ShardStats is one shard's row in the /stats response.
type ShardStats struct {
	Items           int     `json:"items"`
	Pending         int     `json:"pending"`
	MaintainedSize  int     `json:"maintained_size"`
	MaintainedValue float64 `json:"maintained_value"`
	Inserts         uint64  `json:"inserts"`
	Updates         uint64  `json:"updates"`
	Deletes         uint64  `json:"deletes"`
	Flushes         uint64  `json:"flushes"`
	Swaps           uint64  `json:"swaps"`
}

// CorpusStats describes the long-lived query index: the flushed item count
// its backend currently covers, the number of solves answered since
// startup, and the epoch/backend observability operators size deployments
// by — which representation the corpus stores distances in, how many epochs
// have been published, how many superseded epochs in-flight queries still
// pin, and the backend's approximate resident bytes (BytesPerItem makes the
// f32-vs-f64 memory trade directly visible).
type CorpusStats struct {
	Items   int    `json:"items"`
	Queries uint64 `json:"queries"`
	// Backend is the distance representation kind ("f64", "f32", "vec-f32",
	// "vec-int8"). The value round-trips through ParseBackendKind, so a
	// deployment can feed it straight back into serve's -backend flag.
	Backend string `json:"backend"`
	// Epoch counts published immutable corpus generations.
	Epoch uint64 `json:"epoch"`
	// EpochsLive counts published epochs not yet released — 1 when idle,
	// transiently higher while queries pin superseded epochs.
	EpochsLive int64 `json:"epochs_live"`
	// ResidentBytes approximates the distance storage actually held live:
	// the build backend plus every superseded epoch still pinned by
	// in-flight queries (an upper bound — pinned epochs share unchanged
	// rows with the build structurally).
	ResidentBytes int64   `json:"resident_bytes"`
	BytesPerItem  float64 `json:"bytes_per_item,omitempty"`
	// QueriesCoalesced counts full-scope queries answered by joining
	// another in-flight query's solve (including multi-λ gang members);
	// QueriesSolo counts full-scope queries that ran a solve themselves.
	// Subset-scoped queries always solve solo and appear in neither.
	QueriesCoalesced uint64 `json:"queries_coalesced"`
	QueriesSolo      uint64 `json:"queries_solo"`
	// Kernel names the dot-product kernel variant this binary dispatched at
	// build time ("amd64-v3", "arm64", "purego", …) — the implementation
	// behind every vector-backend distance, so perf reports can be matched
	// to the code path that produced them.
	Kernel string `json:"kernel"`
	// RowCache reports the vector backends' distance-row cache; nil for
	// triangular backends (which store every row and cache nothing).
	RowCache *RowCacheStats `json:"row_cache,omitempty"`
}

// RowCacheStats is the vector backends' distance-row cache row in /stats:
// the configured bound (Config.RowCache) and lifetime counters aggregated
// across the build store and every published epoch. A low hit rate under
// steady query load means the working set exceeds Rows — each miss
// recomputes an O(items·dim) row. Carried counts rows a newly published
// epoch inherited from the one before, patched for the items that changed
// instead of recomputed; Evictions counts rows dropped at the bound.
type RowCacheStats struct {
	Rows      int   `json:"rows"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Carried   int64 `json:"carried"`
}

// Stats is the /stats response body.
type Stats struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Items         int          `json:"items"`
	Shards        []ShardStats `json:"shards"`
	Corpus        CorpusStats  `json:"corpus"`
	Query         LatencyStats `json:"query_latency"`
	Mutation      LatencyStats `json:"mutation_latency"`
	// MutationsShed counts mutation requests rejected with 429 because
	// more than Config.MaxEpochsLive published epochs were still pinned.
	MutationsShed uint64 `json:"mutations_shed"`
}
