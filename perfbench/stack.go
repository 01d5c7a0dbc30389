package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"maxsumdiv/internal/cluster"
	"maxsumdiv/internal/server"
)

// workload is one traffic mix over one serving configuration.
type workload struct {
	name    string
	why     string
	backend server.BackendKind
	n, dim  int
	// members > 0 puts that many servers behind a cluster coordinator.
	members int
	// queryFrac is the share of client ops that are queries; the rest are
	// single-item inserts, deletes and vector rewrites.
	queryFrac float64
	// maintainedFrac is the share of queries sent with scope=maintained.
	maintainedFrac float64
	// tail is the fixed tail percentile of the latency metrics, chosen
	// from the steadiness runs (see README.md).
	tail float64
	// queryPart and mutationPart are the lengths of the sub-windows each
	// latency percentile is read in before taking their median: short
	// where every part keeps many samples beyond the tail, so a host stall
	// skews one reading of many; 0, the whole window, where ops are too
	// few to split.
	queryPart, mutationPart time.Duration
	// preRate is how many ops per client and second of warm-up and window
	// are encoded before the clock starts: above the fastest rate seen on
	// the reference host. A faster program falls back to on-demand
	// generation, which the run reports as late_ops.
	preRate int
}

var workloads = []*workload{
	{
		name:    "tri-churn",
		why:     "write path on the f64 triangle at 1024 items: HTTP decode, shard queues, Section-6 swaps, Tri append/remove/compaction and epoch publish; no vector kernels",
		backend: server.BackendF64, n: triN, dim: 32,
		queryFrac: 0.3, maintainedFrac: 0.5, tail: 90, queryPart: 2 * time.Second, mutationPart: time.Second, preRate: 3000,
	},
	{
		name:    "cluster-mixed",
		why:     "vector read path with writes beside it, scatter-gather and merge re-solve; also stands in for vec-read, dropped as unsteady (its write-probe p90 spread 0.29, bound 0.25)",
		backend: server.BackendVecF32, n: 30000, dim: 64, members: 3,
		queryFrac: 0.75, tail: 95, queryPart: 5 * time.Second, preRate: 150,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serverLambda is every server's and the coordinator's default trade-off;
// client queries always carry their own λ.
const serverLambda = 1.0

// listener is one HTTP server on a loopback socket.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serveErr := <-l.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// stack is the serving stack under test: one server, or several behind a
// coordinator. url is where clients send every request.
type stack struct {
	url       string
	servers   []*server.Server
	members   []*listener
	front     *listener
	transport *http.Transport // the coordinator's member client
}

func newStack(w *workload) (*stack, error) {
	st := &stack{}
	count := max(w.members, 1)
	for range count {
		srv, err := server.New(server.Config{Backend: w.backend, Lambda: serverLambda})
		if err != nil {
			st.close()
			return nil, err
		}
		l, err := listen(srv.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		st.members = append(st.members, l)
	}
	if w.members == 0 {
		st.url = st.members[0].url
		return st, nil
	}
	coord, tr, err := newCoordinator(st.members)
	if err != nil {
		st.close()
		return nil, err
	}
	st.transport = tr
	if st.front, err = listen(coord.Handler()); err != nil {
		st.close()
		return nil, err
	}
	st.url = st.front.url
	return st, nil
}

// newCoordinator builds a coordinator over the listeners with its own
// member transport, so tearing it down closes its connections.
func newCoordinator(members []*listener) (*cluster.Coordinator, *http.Transport, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 16}
	lambda := serverLambda
	cfg := cluster.Config{Lambda: &lambda, HTTPClient: &http.Client{Transport: tr}}
	for i, m := range members {
		cfg.Members = append(cfg.Members, cluster.MemberConfig{Name: fmt.Sprintf("m%d", i), URL: m.url})
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return coord, tr, nil
}

func (st *stack) close() error {
	var first error
	if st.front != nil {
		first = st.front.close()
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	for _, l := range st.members {
		if err := l.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stats snapshots every server's own counters.
func (st *stack) stats() []server.Stats {
	out := make([]server.Stats, len(st.servers))
	for i, s := range st.servers {
		out[i] = s.Stats()
	}
	return out
}

// do sends one request and reads the whole answer.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// newHTTPClient returns a client with one keep-alive connection of its own.
func newHTTPClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr
}

// setUp builds the stack, bulk-loads the seed corpus through POST /items in
// bulkBatch-item batches and returns once the first query succeeds, with
// the time that took.
func setUp(w *workload, sc *seedCorpus) (*stack, time.Duration, error) {
	c, tr := newHTTPClient()
	defer tr.CloseIdleConnections()
	t0 := time.Now()
	st, err := newStack(w)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*stack, time.Duration, error) {
		st.close()
		return nil, 0, err
	}
	for i, b := range sc.batches {
		code, body, err := do(c, "POST", st.url+"/items", b)
		if err != nil {
			return fail(fmt.Errorf("bulk load batch %d: %w", i, err))
		}
		if code != http.StatusOK {
			return fail(fmt.Errorf("bulk load batch %d: status %d: %s", i, code, body))
		}
	}
	code, body, err := do(c, "POST", st.url+"/diversify", queryBody(queryK, serverLambda, "", false))
	if err != nil {
		return fail(fmt.Errorf("first query: %w", err))
	}
	if code != http.StatusOK {
		return fail(fmt.Errorf("first query: status %d: %s", code, body))
	}
	return st, time.Since(t0), nil
}
