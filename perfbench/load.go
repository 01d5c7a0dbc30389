package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// knownIDs tracks which ids the benchmark has ever sent: the seed corpus
// plus every insert, registered before the insert is sent.
type knownIDs struct {
	seedN int
	fresh sync.Map
}

func (k *knownIDs) known(id string) bool {
	if len(id) > 1 && id[0] == 's' {
		j, err := strconv.Atoi(id[1:])
		return err == nil && j >= 0 && j < k.seedN
	}
	_, ok := k.fresh.Load(id)
	return ok
}

// span is one timed interval of a traced run. Spans of one ladder query
// share a parent; client ops are roots.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// client is one closed-loop user: it sends its next op only after the
// previous answer is read and checked, over one keep-alive connection.
type client struct {
	idx     int
	http    *http.Client
	tr      *http.Transport
	stream  *stream
	ids     *knownIDs
	owned   map[string]itemRec  // this client's live items as acknowledged
	deleted map[string]struct{} // ids this client deleted, acknowledged
	errs    []string
}

const maxErrs = 5

func newClient(idx int, s *stream, known *knownIDs, sc *seedCorpus, clients int) *client {
	c := &client{idx: idx, stream: s, ids: known, owned: make(map[string]itemRec), deleted: make(map[string]struct{})}
	c.http, c.tr = newHTTPClient()
	for j := idx; j < len(sc.ids); j += clients {
		c.owned[sc.ids[j]] = sc.items[j]
	}
	return c
}

func (c *client) noteErr(format string, args ...any) {
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf("client %d: ", c.idx)+fmt.Sprintf(format, args...))
	}
}

// latSample is one op's latency and when it started, from the phase start.
type latSample struct {
	at time.Duration
	ms float64
}

// tally is what one phase of client traffic produced.
type tally struct {
	// span is the phase's planned length; its sub-windows split it evenly.
	span               time.Duration
	queryMS, mutMS     []latSample
	attempted, failed  int
	queries, mutations int
	partial, shed      int
	late               int
	elapsed, cpu       time.Duration
	// rates and cpuPerOp are per-second readings of throughput and CPU
	// milliseconds per op over the window.
	rates, cpuPerOp []float64
	spans           []span
	errs            []string
}

func (t *tally) merge(o *tally) {
	t.queryMS = append(t.queryMS, o.queryMS...)
	t.mutMS = append(t.mutMS, o.mutMS...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.queries += o.queries
	t.mutations += o.mutations
	t.partial += o.partial
	t.shed += o.shed
	t.late += o.late
	t.elapsed += o.elapsed
	t.cpu += o.cpu
	t.rates = append(t.rates, o.rates...)
	t.cpuPerOp = append(t.cpuPerOp, o.cpuPerOp...)
	t.spans = append(t.spans, o.spans...)
	t.errs = append(t.errs, o.errs...)
}

type divResp struct {
	Items []struct {
		ID string `json:"id"`
	} `json:"items"`
	N int `json:"n"`
}

// checkQuery validates one query answer: min(k, n) distinct ids, each known
// to the benchmark and none deleted by this client's acknowledged deletes.
func (c *client) checkQuery(k, code int, body []byte) bool {
	if code != http.StatusOK {
		c.noteErr("query status %d: %.200s", code, body)
		return false
	}
	var r divResp
	if err := json.Unmarshal(body, &r); err != nil {
		c.noteErr("query answer: %v", err)
		return false
	}
	if r.N <= 0 || len(r.Items) != min(k, r.N) {
		c.noteErr("query returned %d items, want min(%d, n=%d)", len(r.Items), k, r.N)
		return false
	}
	seen := make(map[string]bool, len(r.Items))
	for _, it := range r.Items {
		if seen[it.ID] {
			c.noteErr("query returned %q twice", it.ID)
			return false
		}
		seen[it.ID] = true
		if !c.ids.known(it.ID) {
			c.noteErr("query returned unknown id %q", it.ID)
			return false
		}
		if _, gone := c.deleted[it.ID]; gone {
			c.noteErr("query returned %q after its delete was acknowledged", it.ID)
			return false
		}
	}
	return true
}

// apply records an acknowledged mutation in the client's copy.
func (c *client) apply(o op) {
	switch o.kind {
	case opInsert, opRewrite:
		c.owned[o.id] = o.rec
	case opDelete:
		delete(c.owned, o.id)
		c.deleted[o.id] = struct{}{}
	}
}

// loop runs the client until end, counting completed ops in done. With
// spanID non-nil it records a span per op.
func (c *client) loop(url string, t0, end time.Time, done *atomic.Int64, traceT0 time.Time, spanID func() uint64) *tally {
	t := &tally{}
	late0 := c.stream.late
	for time.Now().Before(end) {
		o := c.stream.next()
		if o.kind == opInsert {
			c.ids.fresh.Store(o.id, struct{}{})
		}
		start := time.Now()
		code, body, err := do(c.http, o.method, url+o.path, o.body)
		stop := time.Now()
		ms := float64(stop.Sub(start).Nanoseconds()) / 1e6
		t.attempted++
		done.Add(1)
		if spanID != nil {
			name := "client.mutation"
			if o.kind == opQuery {
				name = "client.query"
			}
			t.spans = append(t.spans, span{ID: spanID(), Name: name,
				Start: start.Sub(traceT0).Nanoseconds(), End: stop.Sub(traceT0).Nanoseconds()})
		}
		ok := err == nil
		if err != nil {
			c.noteErr("%s %s: %v", o.method, o.path, err)
		}
		if o.kind == opQuery {
			t.queries++
			if code == http.StatusPartialContent {
				t.partial++
			}
			ok = ok && c.checkQuery(o.k, code, body)
			t.queryMS = append(t.queryMS, latSample{start.Sub(t0), ms})
		} else {
			t.mutations++
			if code == http.StatusTooManyRequests {
				t.shed++
			}
			if ok && code != http.StatusOK {
				c.noteErr("%s %s: status %d: %.200s", o.method, o.path, code, body)
				ok = false
			}
			if ok {
				c.apply(o)
			}
			t.mutMS = append(t.mutMS, latSample{start.Sub(t0), ms})
		}
		if !ok {
			t.failed++
		}
	}
	t.late = c.stream.late - late0
	t.errs = c.errs
	c.errs = nil
	return t
}

// drive runs every client in a closed loop for d and merges their tallies.
// spanID non-nil records a span per op. Throughput and CPU per op are also
// read every second, so a run can report their medians over the window: a
// host that stalls for a second then skews one reading of many.
func drive(clients []*client, url string, d time.Duration, traceT0 time.Time, spanID func() uint64) *tally {
	var done atomic.Int64
	cpu0 := cpuTime()
	t0 := time.Now()
	end := t0.Add(d)
	tallies := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[i] = c.loop(url, t0, end, &done, traceT0, spanID)
		}()
	}
	out := &tally{span: d}
	readings := parts(d, time.Second)
	tick := time.NewTicker(d / time.Duration(readings))
	prevT, prevCPU, prevOps := t0, cpu0, int64(0)
	for range readings {
		now := <-tick.C
		cpu, ops := cpuTime(), done.Load()
		if n := ops - prevOps; n > 0 {
			out.rates = append(out.rates, float64(n)/now.Sub(prevT).Seconds())
			out.cpuPerOp = append(out.cpuPerOp, float64((cpu-prevCPU).Nanoseconds())/1e6/float64(n))
		}
		prevT, prevCPU, prevOps = now, cpu, ops
	}
	tick.Stop()
	wg.Wait()
	out.elapsed, out.cpu = time.Since(t0), cpuTime()-cpu0
	for _, p := range tallies {
		out.merge(p)
	}
	return out
}
