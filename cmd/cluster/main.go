// Command cluster runs the scatter-gather coordinator that fronts N serve
// instances as one logical diversification service: consistent-hash routed
// mutations, composable-core-set queries (fan out k′ = ⌈k·overfetch⌉,
// re-solve the candidate union locally), and aggregated epoch/backpressure
// observability.
//
// Usage:
//
//	cluster -members http://h1:8080,http://h2:8080 [-addr :8090]
//	        [-vnodes 64] [-overfetch 2] [-member-timeout 2s] [-retries 2]
//	        [-retry-backoff 50ms] [-lambda 1]
//	cluster -config cluster.json [-addr :8090]
//
// The config file form names members explicitly (names are ring hash keys —
// keep them stable or items move):
//
//	{"members": [{"name": "a", "url": "http://h1:8080"},
//	             {"name": "b", "url": "http://h2:8080"}],
//	 "vnodes": 64, "overfetch": 2.0}
//
// With -members, each member is named m0, m1, … in list order.
//
// Endpoints: the member API (POST /items, DELETE /items/{id},
// GET /items/{id}, POST /diversify, GET /healthz, GET /stats) plus
// GET /cluster/members. Degraded reads answer 206 with partial=true;
// member backpressure propagates as 429 + Retry-After.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"maxsumdiv"
	"maxsumdiv/internal/cluster"
	"maxsumdiv/internal/server"
)

// fileConfig is the -config JSON shape: the member list plus the optional
// ring/query knobs (zero values defer to the flags, flags defer to the
// package defaults).
type fileConfig struct {
	Members   []cluster.MemberConfig `json:"members"`
	VNodes    int                    `json:"vnodes,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Overfetch float64                `json:"overfetch,omitempty"`
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	members := flag.String("members", "", "comma-separated member base URLs (named m0, m1, … in order)")
	configPath := flag.String("config", "", "JSON config file with named members (overrides -members)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per member on the placement ring (0 = default 64)")
	overfetch := flag.Float64("overfetch", 0, "per-member candidate factor: each member is asked for ⌈k·overfetch⌉ items (0 = default 2)")
	memberTimeout := flag.Duration("member-timeout", 0, "per-attempt deadline for member calls (0 = default 2s)")
	retries := flag.Int("retries", 0, "additional attempts for transient member failures (0 = default 2, negative disables)")
	retryBackoff := flag.Duration("retry-backoff", 0, "first retry delay, doubling per attempt (0 = default 50ms)")
	lambda := flag.Float64("lambda", 1, "default λ for the union re-solve; must match the members' -lambda")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg, err := buildConfig(*members, *configPath, *vnodes, *overfetch, *memberTimeout, *retries, *retryBackoff, *lambda)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(2)
	}
	if err := run(ctx, *addr, cfg, *shutdownTimeout, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

// buildConfig merges the flag and config-file forms into a cluster.Config.
func buildConfig(members, configPath string, vnodes int, overfetch float64, memberTimeout time.Duration, retries int, retryBackoff time.Duration, lambda float64) (cluster.Config, error) {
	cfg := cluster.Config{
		VNodes:        vnodes,
		Overfetch:     overfetch,
		MemberTimeout: memberTimeout,
		Retries:       retries,
		RetryBackoff:  retryBackoff,
		Lambda:        maxsumdiv.Ptr(lambda),
	}
	switch {
	case configPath != "":
		data, err := os.ReadFile(configPath)
		if err != nil {
			return cfg, err
		}
		var fc fileConfig
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fc); err != nil {
			return cfg, fmt.Errorf("config %s: %w", configPath, err)
		}
		cfg.Members = fc.Members
		if fc.VNodes != 0 {
			cfg.VNodes = fc.VNodes
		}
		if fc.Seed != 0 {
			cfg.Seed = fc.Seed
		}
		if fc.Overfetch != 0 {
			cfg.Overfetch = fc.Overfetch
		}
	case members != "":
		for i, u := range strings.Split(members, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			cfg.Members = append(cfg.Members, cluster.MemberConfig{Name: "m" + strconv.Itoa(i), URL: u})
		}
	default:
		return cfg, fmt.Errorf("need -members or -config")
	}
	if len(cfg.Members) == 0 {
		return cfg, fmt.Errorf("no members configured")
	}
	return cfg, nil
}

// run serves until ctx is cancelled, then drains gracefully. It prints the
// bound address to out once listening (tests bind :0 and read it back).
func run(ctx context.Context, addr string, cfg cluster.Config, shutdownTimeout time.Duration, out io.Writer) error {
	coord, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := server.NewHTTPServer(coord.Handler())
	names := make([]string, len(cfg.Members))
	for i, m := range cfg.Members {
		names[i] = m.Name
	}
	fmt.Fprintf(out, "coordinating on http://%s (%d members: %s)\n",
		ln.Addr(), len(cfg.Members), strings.Join(names, ", "))

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down...")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "bye")
	return nil
}
