package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"pandora/internal/faults"
)

// TestTransientFailureRetriedToSuccess: a chaos plan that panics every
// job's first attempt must cost retries, not results — and the stored
// result carries its attempt history.
func TestTransientFailureRetriedToSuccess(t *testing.T) {
	base, srv := startServerWith(t, Options{
		Chaos: &faults.ChaosPlan{Seed: 1, PanicPerMille: 1000, FirstAttemptsOnly: true},
	})
	v, _ := post(t, base, smallCheck)
	final := wait(t, base, v.ID)
	if final.State != string(stateDone) {
		t.Fatalf("chaos-hit job: state=%s error=%q, want done after retry", final.State, final.Error)
	}
	if got := srv.stats.Retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := srv.stats.Executed.Load(); got != 1 {
		t.Fatalf("executed = %d, want 1 (a retry is an attempt, not a second job)", got)
	}
	var res JobResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if len(res.Attempts) != 1 || res.Attempts[0].Class != "transient" {
		t.Fatalf("stored attempts = %+v, want one transient failure", res.Attempts)
	}
	if !strings.Contains(res.Attempts[0].Error, "injected chaos panic") {
		t.Fatalf("attempt error %q does not name the injected chaos", res.Attempts[0].Error)
	}
	// The event stream shows the retry.
	resp, err := http.Get(base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	var events bytes.Buffer
	events.ReadFrom(resp.Body)
	if !bytes.Contains(events.Bytes(), []byte(`"phase":"retry"`)) {
		t.Fatalf("no retry phase in event stream:\n%s", events.String())
	}
}

// TestTransientExhaustionVisiblyFails: chaos on every attempt runs the
// budget out; the job fails visibly, is journaled done (no replay), and
// the failure is NOT cached — a clean resubmission succeeds.
func TestTransientExhaustionVisiblyFails(t *testing.T) {
	dir := t.TempDir()
	base, srv := startServerWith(t, Options{
		CacheDir:    dir,
		MaxAttempts: 2,
		Chaos:       &faults.ChaosPlan{Seed: 3, StallPerMille: 1000},
	})
	v, _ := post(t, base, smallCheck)
	final := wait(t, base, v.ID)
	if final.State != string(stateFailed) || !strings.Contains(final.Error, "attempts exhausted") {
		t.Fatalf("state=%s error=%q, want exhausted failure", final.State, final.Error)
	}
	if got := srv.stats.Retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1 (budget 2)", got)
	}
	if pending := srv.journalPending(); pending != 0 {
		t.Fatalf("exhausted job left %d pending journal records, want 0 (visibly failed)", pending)
	}
	// Not cached: the store has no entry for the key.
	if _, outcome, _ := srv.Store().Get(v.Key); outcome != Miss {
		t.Fatalf("transient exhaustion was cached (outcome %v)", outcome)
	}
}

// TestDeterministicFailureCachedNotRetried: a spec that fails the same
// way every time (unassemblable source) is never retried, and its
// failure is cached — the resubmission serves the failure without
// executing.
func TestDeterministicFailureCachedNotRetried(t *testing.T) {
	base, srv := startServerWith(t, Options{})
	badScan := JobSpec{Kind: KindScan, Source: "this is not assembly\nhalt halt halt\n"}

	v, _ := post(t, base, badScan)
	final := wait(t, base, v.ID)
	if final.State != string(stateFailed) || final.Error == "" {
		t.Fatalf("state=%s error=%q, want deterministic failure", final.State, final.Error)
	}
	if got := srv.stats.Retries.Load(); got != 0 {
		t.Fatalf("deterministic failure was retried %d times", got)
	}

	second, _ := post(t, base, badScan)
	sfinal := wait(t, base, second.ID)
	if sfinal.State != string(stateFailed) || !sfinal.Cached {
		t.Fatalf("resubmit: state=%s cached=%v, want cached failure", sfinal.State, sfinal.Cached)
	}
	if sfinal.Error != final.Error {
		t.Fatalf("cached failure error %q differs from original %q", sfinal.Error, final.Error)
	}
	if got := srv.stats.Executed.Load(); got != 1 {
		t.Fatalf("executed %d, want 1 (cached failure must not re-execute)", got)
	}
}

// TestOversizedSecretFailsAndServerSurvives: a scan declaring a secret
// region too large to shadow is a visible job failure, not a fatal
// out-of-memory that takes the process down with it — and neither the
// server that ran it nor a restart replaying it from the journal stops
// serving.
func TestOversizedSecretFailsAndServerSurvives(t *testing.T) {
	huge := JobSpec{Kind: KindScan, Source: ".secret 0x100, 0x7fffffffffffffff\nhalt\n"}
	base, _ := startServerWith(t, Options{})
	v, _ := post(t, base, huge)
	if final := wait(t, base, v.ID); final.State != string(stateFailed) || !strings.Contains(final.Error, "secret") {
		t.Fatalf("state=%s error=%q, want a failed job naming the secret", final.State, final.Error)
	}
	next, _ := post(t, base, smallCheck)
	if final := wait(t, base, next.ID); final.State != string(stateDone) {
		t.Fatalf("next job after the failure: state=%s error=%q", final.State, final.Error)
	}

	// The crash-loop shape: the job was journaled and the process died
	// before it settled, so the restart replays it.
	dir := t.TempDir()
	simulateCrashedJob(t, dir, huge)
	base2, srv2 := startServerWith(t, Options{CacheDir: dir})
	if got := srv2.stats.WALReplayed.Load(); got != 1 {
		t.Fatalf("wal_replayed = %d, want 1", got)
	}
	after, _ := post(t, base2, smallCheck)
	if final := wait(t, base2, after.ID); final.State != string(stateDone) {
		t.Fatalf("job after the replay: state=%s error=%q", final.State, final.Error)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv2.journalPending() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("replayed job never settled in the journal")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobDeadlineCancelsRun: a deadline far shorter than the job's
// runtime terminates it mid-simulation through the cooperative
// cancellation checkpoint, as a visible journaled failure.
func TestJobDeadlineCancelsRun(t *testing.T) {
	base, srv := startServerWith(t, Options{})
	big := JobSpec{Kind: KindCheck, Programs: 50000, Masks: 3, Seed: 5, TimeoutMS: 80}
	v, code := post(t, base, big)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	final := wait(t, base, v.ID)
	if final.State != string(stateFailed) || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("state=%s error=%q, want deadline failure", final.State, final.Error)
	}
	if got := srv.stats.TimedOut.Load(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	if pending := srv.journalPending(); pending != 0 {
		t.Fatalf("timed-out job left %d pending journal records (visible failures must be journaled done)", pending)
	}
	// The timeout knob never fragments the cache: the same spec without
	// it hashes to the same key.
	withoutTimeout := big
	withoutTimeout.TimeoutMS = 0
	k1, _, _ := Key(big)
	k2, _, _ := Key(withoutTimeout)
	if k1 != k2 {
		t.Fatalf("TimeoutMS leaked into the cache key: %s vs %s", k1, k2)
	}
}

// TestRestartRecoversCrashedJob is the restart-recovery gate: a process
// that died after journaling an acceptance (but before storing the
// result) is simulated, a new server on the same directory replays the
// job to a stored result, exactly once, byte-identical to a crash-free
// run. Under first-attempt chaos the replayed job's first attempt
// panics too: recovery and retry must compose, and the stored result
// differs from the crash-free one only by its attempt history.
func TestRestartRecoversCrashedJob(t *testing.T) {
	// A crash-free reference run in its own directory.
	refBase, _ := startServerWith(t, Options{})
	ref, _ := post(t, refBase, smallCheck)
	refFinal := wait(t, refBase, ref.ID)
	if refFinal.State != string(stateDone) {
		t.Fatalf("reference run failed: %s", refFinal.Error)
	}
	var refC bytes.Buffer
	if err := json.Compact(&refC, refFinal.Result); err != nil {
		t.Fatalf("compact reference result: %v", err)
	}

	for _, tc := range []struct {
		name  string
		chaos *faults.ChaosPlan
	}{
		{"plain", nil},
		{"first-attempt-chaos", &faults.ChaosPlan{Seed: 1, PanicPerMille: 1000, FirstAttemptsOnly: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The crashed server's remains: an accept record, no done
			// marker, no cache entry.
			dir := t.TempDir()
			key := simulateCrashedJob(t, dir, smallCheck)

			srv, err := New(Options{CacheDir: dir, Chaos: tc.chaos})
			if err != nil {
				t.Fatalf("New on crashed dir: %v", err)
			}
			t.Cleanup(srv.Close)
			if got := srv.stats.WALReplayed.Load(); got != 1 {
				t.Fatalf("wal_replayed = %d, want 1", got)
			}
			deadline := time.Now().Add(60 * time.Second)
			var body []byte
			for {
				var outcome Outcome
				body, outcome, _ = srv.Store().Get(key)
				if outcome == Hit {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replayed job never reached the store")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if got := srv.stats.Executed.Load(); got != 1 {
				t.Fatalf("executed = %d, want exactly 1", got)
			}

			wantRetries := uint64(0)
			if tc.chaos != nil {
				wantRetries = 1
				var res JobResult
				if err := json.Unmarshal(body, &res); err != nil {
					t.Fatalf("decode replayed result: %v", err)
				}
				if len(res.Attempts) != 1 || res.Attempts[0].Class != "transient" {
					t.Fatalf("stored attempts = %+v, want one transient failure", res.Attempts)
				}
				res.Attempts = nil
				if body, err = MarshalResult(&res); err != nil {
					t.Fatal(err)
				}
			}
			if got := srv.stats.Retries.Load(); got != wantRetries {
				t.Fatalf("retries = %d, want %d", got, wantRetries)
			}
			// Compare the compact forms byte for byte.
			var gotC bytes.Buffer
			if err := json.Compact(&gotC, bytes.TrimRight(body, "\n")); err != nil {
				t.Fatalf("compact replayed result: %v", err)
			}
			if !bytes.Equal(gotC.Bytes(), refC.Bytes()) {
				t.Fatalf("replayed result differs from crash-free run:\n%s\nvs\n%s", gotC.Bytes(), refC.Bytes())
			}
			if pending := srv.journalPending(); pending != 0 {
				t.Fatalf("journal still pending after replay: %d", pending)
			}
		})
	}
}

// TestRestartRejectsTamperedWALRecord: a pending journal record
// modified on disk fails its HMAC on restart and is rejected, never
// replayed — the server must not run a spec it cannot authenticate.
func TestRestartRejectsTamperedWALRecord(t *testing.T) {
	dir := t.TempDir()
	simulateCrashedJob(t, dir, JobSpec{Kind: KindCheck, Programs: 7, Masks: 1, Seed: 42})
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	tampered := bytes.Replace(raw, []byte(`"programs":7`), []byte(`"programs":8`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatalf("tamper target not found in journal:\n%s", raw)
	}
	if err := os.WriteFile(walPath(dir), tampered, 0o600); err != nil {
		t.Fatalf("write tampered journal: %v", err)
	}

	_, srv := startServerWith(t, Options{CacheDir: dir})
	if got := srv.stats.WALRejected.Load(); got < 1 {
		t.Fatalf("wal_rejected = %d, want >= 1", got)
	}
	if got := srv.stats.WALReplayed.Load(); got != 0 {
		t.Fatalf("wal_replayed = %d, want 0", got)
	}
	if got := srv.stats.Executed.Load(); got != 0 {
		t.Fatalf("executed = %d, want 0", got)
	}
}

// TestRestartCompletedJobNotReExecuted: the other crash window — the
// result reached the store but the done marker was lost. Replay must
// serve the cache, not execute again.
func TestRestartCompletedJobNotReExecuted(t *testing.T) {
	dir := t.TempDir()
	base, srv := startServerWith(t, Options{CacheDir: dir})
	v, _ := post(t, base, smallCheck)
	if final := wait(t, base, v.ID); final.State != string(stateDone) {
		t.Fatalf("first run failed: %s", final.Error)
	}
	srv.Close()

	// Forge the lost done marker: a fresh accept with no done.
	simulateCrashedJob(t, dir, smallCheck)
	srv2, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv2.Close)
	if got := srv2.stats.WALReplayed.Load(); got != 1 {
		t.Fatalf("wal_replayed = %d, want 1", got)
	}
	if got := srv2.stats.Executed.Load(); got != 0 {
		t.Fatalf("executed = %d, want 0 (result was already cached)", got)
	}
	if pending := srv2.journalPending(); pending != 0 {
		t.Fatalf("journal still pending: %d", pending)
	}
}

// TestShutdownDrainsQueuedJobsUnderChaos is the SIGTERM-drain gate:
// jobs queued at shutdown — including ones whose first attempts die to
// injected panics — still run to stored results before Serve returns.
func TestShutdownDrainsQueuedJobsUnderChaos(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{
		CacheDir: dir,
		Chaos:    &faults.ChaosPlan{Seed: 11, PanicPerMille: 1000, FirstAttemptsOnly: true},
	})
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

	specs := []JobSpec{
		{Kind: KindCheck, Programs: 4, Masks: 1, Seed: 21},
		{Kind: KindCheck, Programs: 4, Masks: 1, Seed: 22},
		{Kind: KindScan, Scenario: "stlf"},
	}
	keys := make([]string, len(specs))
	for i, spec := range specs {
		v, code := post(t, base, spec)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d (%s)", i, code, v.Error)
		}
		keys[i] = v.Key
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	for i, key := range keys {
		if _, outcome, _ := srv.Store().Get(key); outcome != Hit {
			t.Fatalf("drained job %d (key %.12s…) left no stored result (outcome %v)", i, key, outcome)
		}
	}
	if got := srv.stats.Retries.Load(); got != uint64(len(specs)) {
		t.Fatalf("retries = %d, want %d (every first attempt panicked)", got, len(specs))
	}
	if pending := srv.journalPending(); pending != 0 {
		t.Fatalf("journal pending after full drain: %d", pending)
	}
}

// TestShutdownCancelsLongJobAndReplays: a job still running when the
// drain window closes is cancelled through the lifecycle context,
// stays pending in the journal, and a restart replays it.
func TestShutdownCancelsLongJobAndReplays(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{CacheDir: dir, DrainWindow: 50 * time.Millisecond})
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

	long := JobSpec{Kind: KindCheck, Programs: 200000, Masks: 3, Seed: 9}
	v, code := post(t, base, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Give the job a moment to start executing, then pull the plug.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if waited := time.Since(start); waited > 20*time.Second {
		t.Fatalf("shutdown took %v; the drain window did not cancel the long job", waited)
	}
	if _, outcome, _ := srv.Store().Get(v.Key); outcome == Hit {
		t.Skipf("long job finished before the drain window; nothing to replay")
	}
	pending := srv.journalPending()
	if pending != 1 {
		t.Fatalf("cancelled job not pending in journal (pending=%d)", pending)
	}

	// The restart replays it (we don't wait for this huge job to finish
	// — seeing it queued and counted is the recovery property).
	srv2, err := New(Options{CacheDir: dir})
	if err != nil {
		t.Fatalf("New after shutdown: %v", err)
	}
	if got := srv2.stats.WALReplayed.Load(); got != 1 {
		t.Fatalf("wal_replayed = %d, want 1", got)
	}
	srv2.Close() // drain window applies; the replayed job cancels again
}

// TestBreakerShedsAfterConsecutiveFailures: enough deterministic
// failures of one kind open its circuit; the next submission of that
// kind is shed with 503 + Retry-After while other kinds stay admitted.
func TestBreakerShedsAfterConsecutiveFailures(t *testing.T) {
	base, srv := startServerWith(t, Options{}, withBreaker(KindScan, 2, time.Hour))
	for i := 0; i < 2; i++ {
		v, _ := post(t, base, JobSpec{Kind: KindScan, Source: "bogus instruction " + strings.Repeat("x", i+1)})
		if final := wait(t, base, v.ID); final.State != string(stateFailed) {
			t.Fatalf("setup failure %d did not fail", i)
		}
	}
	body, _ := json.Marshal(JobSpec{Kind: KindScan, Scenario: "stlf"})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit submission: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After")
	}
	if got := srv.stats.Shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	// Other kinds are unaffected.
	v, code := post(t, base, smallCheck)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("check submission during scan outage: HTTP %d", code)
	}
	wait(t, base, v.ID)

	// readyz reports the open circuit.
	ready, rcode := readyz(t, base)
	if rcode != http.StatusServiceUnavailable {
		t.Fatalf("readyz: HTTP %d, want 503 with an open breaker", rcode)
	}
	if ready.Ready || ready.Breakers["scan"] != "open" {
		t.Fatalf("readyz = %+v, want scan breaker open", ready)
	}
}

// withBreaker replaces kind's breaker with one of the given threshold
// and cooldown (a startServerWith prepare function).
func withBreaker(kind JobKind, threshold int, cooldown time.Duration) func(*Server) {
	return func(s *Server) { s.breakers[kind] = newBreaker(threshold, cooldown) }
}

// readiness is the /readyz body.
type readiness struct {
	Ready    bool              `json:"ready"`
	Breakers map[string]string `json:"breakers"`
	Inflight map[string]int    `json:"inflight"`
}

// readyz fetches /readyz and returns its decoded body and status code.
func readyz(t *testing.T, base string) (readiness, int) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET readyz: %v", err)
	}
	defer resp.Body.Close()
	var r readiness
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("decode readyz: %v", err)
	}
	return r, resp.StatusCode
}

// waitRunning polls a job until a pool worker has started it.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		if view.State != string(stateQueued) {
			if view.State != string(stateRunning) {
				t.Fatalf("job %s settled (%s) before it was seen running", id, view.State)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHalfOpenProbeRefusedByFullQueue: a half-open probe that its full
// shard queue refuses is shed without a verdict and gives its probe
// slot back, so once the queue has room the kind admits a probe again
// instead of shedding every submission as "circuit open" until restart.
func TestHalfOpenProbeRefusedByFullQueue(t *testing.T) {
	base, _ := startServerWith(t, Options{
		Shards:     1,
		QueueDepth: 1,
		Chaos:      &faults.ChaosPlan{Seed: 5, SlowPerMille: 1000, SlowDelay: 400 * time.Millisecond},
	}, withBreaker(KindScan, 1, 50*time.Millisecond))

	bogus, _ := post(t, base, JobSpec{Kind: KindScan, Source: "bogus instruction"})
	if final := wait(t, base, bogus.ID); final.State != string(stateFailed) {
		t.Fatalf("bogus scan: state=%s, want failed", final.State)
	}
	// Fill the one shard: a check running and a second queued behind it.
	running, code := post(t, base, JobSpec{Kind: KindCheck, Programs: 4, Masks: 1, Seed: 41})
	if code != http.StatusAccepted {
		t.Fatalf("first check: HTTP %d (%s)", code, running.Error)
	}
	waitRunning(t, base, running.ID)
	queued, code := post(t, base, JobSpec{Kind: KindCheck, Programs: 4, Masks: 1, Seed: 42})
	if code != http.StatusAccepted {
		t.Fatalf("second check: HTTP %d (%s)", code, queued.Error)
	}
	time.Sleep(100 * time.Millisecond) // past the scan cooldown

	stlf := JobSpec{Kind: KindScan, Scenario: "stlf"}
	if v, code := post(t, base, stlf); code != http.StatusServiceUnavailable || !strings.Contains(v.Error, "queue full") {
		t.Fatalf("probe into a full queue: HTTP %d (%s), want 503 queue full", code, v.Error)
	}
	if r, _ := readyz(t, base); r.Breakers["scan"] != "half-open" {
		t.Fatalf("scan breaker %q after the refused probe, want half-open", r.Breakers["scan"])
	}
	wait(t, base, running.ID)
	wait(t, base, queued.ID)

	v, code := post(t, base, stlf)
	if code != http.StatusAccepted {
		t.Fatalf("scan after the queue drained: HTTP %d (%s), want 202 for a new probe", code, v.Error)
	}
	if final := wait(t, base, v.ID); final.State != string(stateDone) {
		t.Fatalf("probe scan: state=%s error=%q, want done", final.State, final.Error)
	}
	if r, code := readyz(t, base); code != http.StatusOK || r.Breakers["scan"] != "closed" {
		t.Fatalf("readyz after a successful probe: HTTP %d, scan breaker %q, want 200 closed", code, r.Breakers["scan"])
	}
}

// TestReadyzCountsInflight: /readyz counts a kind's queued and running
// executions, and drops the kind once its last one settles.
func TestReadyzCountsInflight(t *testing.T) {
	base, _ := startServerWith(t, Options{
		Chaos: &faults.ChaosPlan{Seed: 5, SlowPerMille: 1000, SlowDelay: 300 * time.Millisecond},
	})
	v, code := post(t, base, smallCheck)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%s)", code, v.Error)
	}
	waitRunning(t, base, v.ID)
	if r, _ := readyz(t, base); r.Inflight["check"] != 1 || len(r.Inflight) != 1 {
		t.Fatalf("inflight = %v while the check job runs, want check: 1", r.Inflight)
	}
	wait(t, base, v.ID)
	if r, _ := readyz(t, base); len(r.Inflight) != 0 {
		t.Fatalf("inflight = %v after the job settled, want empty", r.Inflight)
	}
}

// TestHealthEndpoints: liveness always OK, readiness OK on a healthy
// idle server.
func TestHealthEndpoints(t *testing.T) {
	base, _ := startServer(t)
	for path, wantCode := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: HTTP %d, want %d", path, resp.StatusCode, wantCode)
		}
	}
}
