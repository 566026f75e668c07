package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer runs a service on an ephemeral port with a fresh cache
// directory and tears it down (gracefully) at test end.
func startServer(t *testing.T) (base string, srv *Server) {
	t.Helper()
	return startServerWith(t, Options{CacheDir: t.TempDir()})
}

// startServerWith is startServer with explicit options (CacheDir is
// filled in when empty). Each prepare function adjusts the server after
// New and before it serves; a test that replaces a kind's breaker this
// way must replay no jobs, whose runs could already be recording on it.
func startServerWith(t *testing.T, opts Options, prepare ...func(*Server)) (base string, srv *Server) {
	t.Helper()
	if opts.CacheDir == "" {
		opts.CacheDir = t.TempDir()
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, p := range prepare {
		p(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return "http://" + ln.Addr().String(), srv
}

// post submits a spec and decodes the job view.
func post(t *testing.T, base string, spec JobSpec) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode submit response (HTTP %d): %v", resp.StatusCode, err)
	}
	return view, resp.StatusCode
}

// wait blocks until the job settles and returns its final view.
func wait(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=55s")
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		if view.State == string(stateDone) || view.State == string(stateFailed) {
			return view
		}
	}
	t.Fatalf("job %s did not settle", id)
	return JobView{}
}

// smallCheck is a fast check-job spec used across the tests.
var smallCheck = JobSpec{Kind: KindCheck, Programs: 4, Masks: 1, Seed: 7}

// TestSubmitMissThenByteIdenticalHit round-trips one scaled-down job of
// every kind on one server — plus a self-registered crypto-kernel scan
// scenario, submitted like any built-in — each cold (executes) and then
// resubmitted: the second submission must be a byte-identical cache hit
// that does not execute again.
func TestSubmitMissThenByteIdenticalHit(t *testing.T) {
	base, srv := startServer(t)
	specs := []struct {
		name string
		spec JobSpec
	}{
		{"bench", JobSpec{Kind: KindBench, Experiment: "fig4"}},
		{"check", JobSpec{Kind: KindCheck, Programs: 6, Masks: 1, Seed: 1}},
		{"scan", JobSpec{Kind: KindScan, Scenario: "stlf"}},
		{"fault", JobSpec{Kind: KindFault, Trials: 1, Sites: []string{"fence-stuck"}, Seed: 1}},
		{"trace", JobSpec{Kind: KindTrace, Scenario: "stlf", Format: "jsonl"}},
		{"contract", JobSpec{Kind: KindContract, Kernels: []string{"montladder-cswap"},
			Variants: []string{"default-lru"}, Masks: 4}},
		{"scan-kernel", JobSpec{Kind: KindScan, Scenario: "chacha20-qr"}},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			first, code := post(t, base, tc.spec)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("submit: HTTP %d (%s)", code, first.Error)
			}
			done := wait(t, base, first.ID)
			if done.State != string(stateDone) || done.Cached {
				t.Fatalf("first run: state=%s cached=%v error=%q; want fresh done", done.State, done.Cached, done.Error)
			}
			if len(done.Result) == 0 {
				t.Fatalf("first run returned no result body")
			}

			second, code := post(t, base, tc.spec)
			if code != http.StatusOK {
				t.Fatalf("resubmit: HTTP %d, want 200", code)
			}
			if !second.Cached || second.State != string(stateDone) {
				t.Fatalf("resubmit: state=%s cached=%v; want cached done", second.State, second.Cached)
			}
			if !bytes.Equal(done.Result, second.Result) {
				t.Fatalf("cached result differs from computed result:\n%s\nvs\n%s", done.Result, second.Result)
			}
			// Two job IDs, one key.
			if first.Key != second.Key || first.ID == second.ID {
				t.Fatalf("key/id bookkeeping: first %s/%s second %s/%s", first.ID, first.Key, second.ID, second.Key)
			}
		})
	}

	// One execution and one hit per spec, nothing double-run — and on
	// the happy path none of the reliability machinery fires.
	n := uint64(len(specs))
	if got := srv.stats.Executed.Load(); got != n {
		t.Errorf("executed %d jobs, want %d (cache hits must not re-execute)", got, n)
	}
	if got := srv.stats.CacheHits.Load(); got != n {
		t.Errorf("cache hits = %d, want %d", got, n)
	}
	if r, sh, w := srv.stats.Retries.Load(), srv.stats.Shed.Load(), srv.stats.WALReplayed.Load(); r+sh+w != 0 {
		t.Errorf("retries=%d shed=%d wal_replayed=%d, want all 0", r, sh, w)
	}
}

func TestConcurrentIdenticalSubmissionsSingleflight(t *testing.T) {
	base, srv := startServer(t)
	spec := JobSpec{Kind: KindCheck, Programs: 24, Masks: 2, Seed: 11}

	const clients = 8
	var wg sync.WaitGroup
	views := make([]JobView, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _ := post(t, base, spec)
			views[i] = v
		}(i)
	}
	wg.Wait()

	for i, v := range views {
		if v.ID == "" {
			t.Fatalf("client %d got no job", i)
		}
		final := wait(t, base, v.ID)
		if final.State != string(stateDone) {
			t.Fatalf("client %d job %s: state=%s error=%q", i, v.ID, final.State, final.Error)
		}
	}
	// The acceptance criterion: one execution total, no matter how the
	// submissions raced (followers either coalesced onto the flight or
	// hit the cache after it settled).
	if got := srv.stats.Executed.Load(); got != 1 {
		t.Fatalf("executed %d jobs for %d identical submissions, want 1", got, clients)
	}
	if hits, dedup := srv.stats.CacheHits.Load(), srv.stats.Deduped.Load(); hits+dedup != clients-1 {
		t.Fatalf("hits(%d)+deduped(%d) = %d, want %d", hits, dedup, hits+dedup, clients-1)
	}
}

// A concurrent resubmission of an already-stored job is a cache hit
// served in the POST response, never a dedupe onto a short-lived flight.
func TestConcurrentResubmissionsOfSettledJobAreHits(t *testing.T) {
	base, srv := startServer(t)
	first, _ := post(t, base, smallCheck)
	if done := wait(t, base, first.ID); done.State != string(stateDone) {
		t.Fatalf("first run: state=%s error=%q", done.State, done.Error)
	}

	const clients = 64
	var wg sync.WaitGroup
	views := make([]JobView, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i], _ = post(t, base, smallCheck)
		}(i)
	}
	wg.Wait()

	for i, v := range views {
		if !v.Cached || v.Deduped || v.State != string(stateDone) {
			t.Fatalf("client %d: state=%s cached=%v deduped=%v; want a settled cache hit",
				i, v.State, v.Cached, v.Deduped)
		}
	}
	if got := srv.stats.Deduped.Load(); got != 0 {
		t.Fatalf("deduped = %d, want 0", got)
	}
	if got := srv.stats.CacheHits.Load(); got != clients {
		t.Fatalf("cache hits = %d, want %d", got, clients)
	}
	if got := srv.stats.Executed.Load(); got != 1 {
		t.Fatalf("executed = %d, want 1", got)
	}
}

func TestTamperedEntryIsRejectedAndRecomputed(t *testing.T) {
	base, srv := startServer(t)

	first, _ := post(t, base, smallCheck)
	done := wait(t, base, first.ID)
	if done.State != string(stateDone) {
		t.Fatalf("first run failed: %s", done.Error)
	}

	// Corrupt the stored body on disk behind the server's back.
	path := srv.Store().EntryPath(first.Key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("corrupt entry: %v", err)
	}

	second, _ := post(t, base, smallCheck)
	final := wait(t, base, second.ID)
	if final.State != string(stateDone) || final.Cached {
		t.Fatalf("post-tamper resubmit: state=%s cached=%v; want fresh recompute", final.State, final.Cached)
	}
	if !bytes.Equal(final.Result, done.Result) {
		t.Fatalf("recomputed result differs from the original")
	}
	if got := srv.stats.CacheRejected.Load(); got != 1 {
		t.Fatalf("cache rejected = %d, want 1", got)
	}
	if got := srv.stats.Executed.Load(); got != 2 {
		t.Fatalf("executed %d, want 2 (original + recompute)", got)
	}
	// The recompute restored an authentic entry: a third submission hits.
	third, _ := post(t, base, smallCheck)
	if !third.Cached {
		t.Fatalf("third submission missed the repaired cache")
	}
}

func TestEventsStreamJSONLAndSSE(t *testing.T) {
	base, _ := startServer(t)
	spec := JobSpec{Kind: KindTrace, Scenario: "stlf", Format: "report"}
	v, _ := post(t, base, spec)
	wait(t, base, v.ID)

	// JSONL: full replay, phases in lifecycle order, probe events from
	// the obs bridge in between.
	resp, err := http.Get(base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	phases := map[string]int{}
	var lastSeq = -1
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Seq != lastSeq+1 {
			t.Fatalf("event seq gap: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		phases[ev.Phase]++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan events: %v", err)
	}
	for _, want := range []string{PhaseQueued, PhaseStarted, PhaseProbe, PhaseDone} {
		if phases[want] == 0 {
			t.Fatalf("no %q event in stream (saw %v)", want, phases)
		}
	}

	// SSE: same stream framed as text/event-stream data: lines.
	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events (SSE): %v", err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content-type %q", ct)
	}
	ssc := bufio.NewScanner(sresp.Body)
	ssc.Buffer(make([]byte, 1<<20), 1<<20)
	dataLines := 0
	for ssc.Scan() {
		line := ssc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE line %q lacks data: prefix", line)
		}
		dataLines++
	}
	if dataLines != lastSeq+1 {
		t.Fatalf("SSE delivered %d events, JSONL delivered %d", dataLines, lastSeq+1)
	}
}

func TestStatsEndpointExposesRegistry(t *testing.T) {
	base, _ := startServer(t)
	v, _ := post(t, base, smallCheck)
	wait(t, base, v.ID)

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var stats map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	for name, want := range map[string]uint64{
		"serve.submitted":    1,
		"serve.executed":     1,
		"serve.completed":    1,
		"serve.cache.misses": 1,
	} {
		if stats[name] != want {
			t.Fatalf("stats[%s] = %d, want %d (full: %v)", name, stats[name], want, stats)
		}
	}
	if _, ok := stats["serve.jobs.tracked"]; !ok {
		t.Fatalf("stats missing serve.jobs.tracked gauge")
	}
}

func TestSubmitValidation(t *testing.T) {
	base, _ := startServer(t)
	for _, tc := range []JobSpec{
		{Kind: "juggle"},
		{Kind: KindScan},
		{Kind: KindScan, Source: "halt\n", Secrets: []string{"0:0xffffffffffff"}},
		{Kind: KindBench, Experiment: "no-such-figure"},
		{Kind: KindTrace, Scenario: "stlf", Format: "yaml"},
		{Kind: KindFault, Sites: []string{"bogus-site"}},
	} {
		body, _ := json.Marshal(tc)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %+v: HTTP %d, want 400", tc, resp.StatusCode)
		}
	}
	// Unknown fields are rejected too (strict decode).
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"check","bogus_field":1}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestListJobs(t *testing.T) {
	base, _ := startServer(t)
	a, _ := post(t, base, smallCheck)
	wait(t, base, a.ID)
	b, _ := post(t, base, JobSpec{Kind: KindScan, Scenario: "stlf"})
	wait(t, base, b.ID)

	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET jobs: %v", err)
	}
	defer resp.Body.Close()
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(views) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(views))
	}
	for i := 1; i < len(views); i++ {
		if views[i-1].ID >= views[i].ID {
			t.Fatalf("list not id-ordered: %s before %s", views[i-1].ID, views[i].ID)
		}
	}
	for _, v := range views {
		if len(v.Result) != 0 {
			t.Fatalf("list includes result bodies")
		}
	}
}

func TestRunnersCoverEveryKindDeterministically(t *testing.T) {
	// Every kind's runner produces the same result bytes when run twice
	// — the property the content-addressed cache is built on.
	specs := map[JobKind]JobSpec{
		KindBench: {Kind: KindBench, Experiment: "fig4"},
		KindCheck: smallCheck,
		KindScan:  {Kind: KindScan, Scenario: "stlf"},
		KindFault: {Kind: KindFault, Trials: 1, Sites: []string{"fence-stuck"}, Seed: 3},
		KindTrace: {Kind: KindTrace, Scenario: "stlf", Format: "jsonl"},
		KindContract: {Kind: KindContract, Kernels: []string{"montladder-cswap"},
			Variants: []string{"default-lru"}, Masks: 4},
	}
	for _, kind := range Kinds() {
		spec, ok := specs[kind]
		if !ok {
			t.Fatalf("no spec for kind %s", kind)
		}
		key, canon, err := Key(spec)
		if err != nil {
			t.Fatalf("%s: Key: %v", kind, err)
		}
		runner, ok := Runner(kind)
		if !ok {
			t.Fatalf("no runner for kind %s", kind)
		}
		run := func() []byte {
			res, err := runner.Run(context.Background(), canon, RunOpts{})
			if err != nil {
				t.Fatalf("%s: Run: %v", kind, err)
			}
			res.Key = key
			b, err := MarshalResult(res)
			if err != nil {
				t.Fatalf("%s: marshal: %v", kind, err)
			}
			var full JobResult
			if err := json.Unmarshal(b, &full); err != nil || cachedError(b) != full.Error {
				t.Fatalf("%s: cachedError = %q, full decode = %q (%v)", kind, cachedError(b), full.Error, err)
			}
			return b
		}
		if a, b := run(), run(); !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs of one canonical spec produced different bytes", kind)
		}
	}
}

func TestGracefulDrainRunsQueuedJobs(t *testing.T) {
	// A server whose context is cancelled right after accepting work
	// still runs the queued job to a stored result before Serve returns.
	dir := t.TempDir()
	srv, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	v, code := post(t, base, smallCheck)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := srv.stats.Completed.Load(); got != 1 {
		t.Fatalf("drain completed %d jobs, want 1", got)
	}
	key, _, err := Key(smallCheck)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if _, outcome, _ := srv.Store().Get(key); outcome != Hit {
		t.Fatalf("drained job %s left no cache entry (outcome %v)", v.ID, outcome)
	}
}
