package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pandora/cmd/pandora/internal/cli"
	"pandora/internal/serve"
)

// runServe implements `pandora serve`: the long-running leakage-analysis
// service. Jobs for the six analyses arrive over POST /v1/jobs, run on
// a sharded worker pool, stream progress over GET /v1/jobs/{id}/events,
// and land in a content-addressed, tamper-evident result cache —
// identical resubmissions are served from the store without
// re-executing. SIGINT/SIGTERM drains gracefully: accepted jobs run to
// a stored result before the process exits.
func runServe(args []string) int {
	c := cli.New("serve", cli.WithParallel())
	fs := c.Flags()
	addr := fs.String("addr", "127.0.0.1:8753", "listen address")
	cacheDir := fs.String("cache", ".pandora-cache", "result cache directory")
	shards := fs.Int("shards", 0, "worker pool shards (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "queued jobs per shard before 503 back-pressure (0 = 64)")
	timeout := fs.Duration("timeout", 0, "default per-job deadline when the spec omits timeout_ms (0 = none)")
	maxTimeout := fs.Duration("max-timeout", 10*time.Minute, "upper bound on client-requested job deadlines")
	drain := fs.Duration("drain", 15*time.Second, "shutdown window for in-flight jobs before they are cancelled and journaled for replay")
	retries := fs.Int("retries", 3, "attempt budget per job for transient failures (worker panics, injected chaos)")
	if err := c.Parse(args); err != nil {
		return 2
	}
	defer c.Close()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	srv, err := serve.New(serve.Options{
		Addr:           *addr,
		CacheDir:       *cacheDir,
		Shards:         *shards,
		QueueDepth:     *queue,
		Workers:        *c.Parallel,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DrainWindow:    *drain,
		MaxAttempts:    *retries,
		Log:            logf,
	})
	if err != nil {
		return c.Errorf(1, "%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx); err != nil {
		return c.Errorf(1, "%v", err)
	}
	return 0
}
