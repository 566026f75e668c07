package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pandora/internal/faults"
	"pandora/internal/journal"
	"pandora/internal/obs"
	"pandora/internal/parallel"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address for ListenAndServe ("127.0.0.1:0"
	// picks an ephemeral port).
	Addr string
	// CacheDir roots the content-addressed result store and the job
	// journal.
	CacheDir string
	// Shards / QueueDepth size the worker pool (0 = defaults: one shard
	// per CPU, 64 queued jobs per shard).
	Shards     int
	QueueDepth int
	// Workers bounds each job's internal analysis fan-out (0 =
	// GOMAXPROCS). Never part of the cache key.
	Workers int
	// Log receives server narrative lines (nil = silent).
	Log func(format string, args ...any)

	// DefaultTimeout bounds jobs that request no deadline of their own
	// (0 = unbounded). MaxTimeout caps client-requested deadlines
	// (0 = a 10-minute default cap).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainWindow is how long a shutting-down server lets in-flight and
	// queued jobs run before cancelling them (cancelled jobs replay from
	// the journal on the next start). 0 = 15s.
	DrainWindow time.Duration
	// MaxAttempts is the per-job attempt budget for transient failures
	// (0 = 3; 1 disables retries). RetryBase/RetryMax shape the capped
	// exponential backoff between attempts (0 = 25ms / 2s).
	MaxAttempts int
	RetryBase   time.Duration
	RetryMax    time.Duration
	// BreakerThreshold consecutive terminal failures of one job kind
	// open that kind's circuit for BreakerCooldown, shedding its
	// submissions with 503 + Retry-After (0 = 5 failures / 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// KindConcurrency caps concurrently executing jobs per kind;
	// submissions over the cap are shed with 503 (0 = unlimited).
	KindConcurrency int
	// Chaos, when non-nil, injects seeded failures (panics, stalls,
	// slow-downs) into job attempts. Test-only: the chaos tests drive
	// it; production servers leave it nil.
	Chaos *faults.ChaosPlan
}

// Defaulted option values.
const (
	defaultMaxTimeout       = 10 * time.Minute
	defaultDrainWindow      = 15 * time.Second
	defaultMaxAttempts      = 3
	defaultRetryBase        = 25 * time.Millisecond
	defaultRetryMax         = 2 * time.Second
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 5 * time.Second
)

// Stats counts the server's job traffic. Fields are atomics because
// jobs complete on pool workers while HTTP handlers submit and read
// concurrently; the obs registry reads them through Load closures.
type Stats struct {
	Submitted     atomic.Uint64 // jobs accepted by POST /v1/jobs
	Executed      atomic.Uint64 // jobs actually run on the pool
	Completed     atomic.Uint64 // jobs that ran to a stored result
	Failed        atomic.Uint64 // jobs whose analysis reached a terminal failure
	Deduped       atomic.Uint64 // submissions coalesced onto an in-flight job
	CacheHits     atomic.Uint64 // submissions served from the store
	CacheMisses   atomic.Uint64 // submissions that found no entry
	CacheRejected atomic.Uint64 // entries that failed authentication
	Retries       atomic.Uint64 // extra attempts after transient failures
	Shed          atomic.Uint64 // submissions refused by breaker/concurrency limits
	TimedOut      atomic.Uint64 // jobs terminated by their deadline
	WALReplayed   atomic.Uint64 // journaled jobs recovered on startup
	WALRejected   atomic.Uint64 // journal records that failed authentication
}

// register exposes the counters on an obs registry under serve.*.
func (st *Stats) register(reg *obs.Registry) {
	reg.Counter("serve.submitted", st.Submitted.Load)
	reg.Counter("serve.executed", st.Executed.Load)
	reg.Counter("serve.completed", st.Completed.Load)
	reg.Counter("serve.failed", st.Failed.Load)
	reg.Counter("serve.deduped", st.Deduped.Load)
	reg.Counter("serve.cache.hits", st.CacheHits.Load)
	reg.Counter("serve.cache.misses", st.CacheMisses.Load)
	reg.Counter("serve.cache.rejected", st.CacheRejected.Load)
	reg.Counter("serve.retries", st.Retries.Load)
	reg.Counter("serve.shed", st.Shed.Load)
	reg.Counter("serve.timeouts", st.TimedOut.Load)
	reg.Counter("serve.wal_replayed", st.WALReplayed.Load)
	reg.Counter("serve.wal_rejected", st.WALRejected.Load)
}

type jobState string

const (
	stateQueued  jobState = "queued"
	stateRunning jobState = "running"
	stateDone    jobState = "done"
	stateFailed  jobState = "failed"
)

// Job is one tracked submission. Identical submissions share one Job
// while it is in flight (singleflight) and share its cache entry after.
// A settled Job is a compact record: it keeps neither its spec nor its
// result body, only whether a body was stored under its key, and a GET
// re-reads that body through the store.
type Job struct {
	id      string
	key     string
	kind    JobKind
	timeout time.Duration
	log     *eventLog
	done    chan struct{}

	// executing marks a job that holds an in-flight execution slot
	// (guarded by Server.mu, released at settle).
	executing bool

	mu     sync.Mutex
	spec   *JobSpec // the canonical spec, needed only to execute; nil once settled
	state  jobState
	cached bool
	stored bool // settled with a result body stored under key
	errMsg string
}

// JobView is the client-facing rendering of a Job. Spec is shown while
// the job is in flight; Result is the stored body of a settled job.
type JobView struct {
	ID      string          `json:"id"`
	Key     string          `json:"key"`
	Kind    JobKind         `json:"kind"`
	Spec    *JobSpec        `json:"spec,omitempty"`
	State   string          `json:"state"`
	Cached  bool            `json:"cached,omitempty"`
	Deduped bool            `json:"deduped,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// view renders the job without a result. stored reports that the job
// settled with a body under its key (a success, or a cached
// deterministic failure recording the error and any attempt history).
func (j *Job) view(deduped bool) (v JobView, stored bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:      j.id,
		Key:     j.key,
		Kind:    j.kind,
		Spec:    j.spec,
		State:   string(j.state),
		Cached:  j.cached,
		Deduped: deduped,
		Error:   j.errMsg,
	}, j.stored
}

// Server is the `pandora serve` service: HTTP job API in front of the
// content-addressed store, the job journal and the sharded worker pool.
type Server struct {
	opts  Options
	store *Store
	pool  *parallel.ShardPool
	reg   *obs.Registry
	stats Stats
	wal   *journal.Writer

	// lifeCtx is the server's lifecycle context: every job attempt runs
	// under a context derived from it, so a shutdown (after the drain
	// window) cancels in-flight work instead of orphaning it.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	breakers map[JobKind]*breaker
	draining atomic.Bool
	stopOnce sync.Once

	mu       sync.Mutex
	jobs     map[string]*Job
	settled  []string        // ids of the settled jobs in jobs, oldest first
	flights  map[string]*Job // cache key → in-flight job
	inflight map[JobKind]int // executing jobs per kind
	seq      int
	// maxSettled bounds the settled records in jobs (maxSettledJobs;
	// tests shrink it). In-flight jobs are never evicted.
	maxSettled int
}

// maxSettledJobs is how many settled job records a server keeps, at
// about 1.5 KB each; the oldest is evicted first.
const maxSettledJobs = 16384

// New builds a Server: opens (or creates) the store and the job
// journal, starts the worker pool, and replays any jobs a previous
// process accepted but never finished.
func New(opts Options) (*Server, error) {
	if opts.CacheDir == "" {
		return nil, fmt.Errorf("serve: Options.CacheDir is required")
	}
	if opts.MaxTimeout == 0 {
		opts.MaxTimeout = defaultMaxTimeout
	}
	if opts.DrainWindow == 0 {
		opts.DrainWindow = defaultDrainWindow
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = defaultMaxAttempts
	}
	if opts.RetryBase == 0 {
		opts.RetryBase = defaultRetryBase
	}
	if opts.RetryMax == 0 {
		opts.RetryMax = defaultRetryMax
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = defaultBreakerThreshold
	}
	if opts.BreakerCooldown == 0 {
		opts.BreakerCooldown = defaultBreakerCooldown
	}
	store, err := OpenStore(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	w, pending, rejected, err := openWAL(opts.CacheDir, store.secret, opts.Log)
	if err != nil {
		return nil, err
	}
	lifeCtx, lifeCancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		store:      store,
		pool:       parallel.NewShardPool(opts.Shards, opts.QueueDepth),
		reg:        obs.NewRegistry(),
		wal:        w,
		lifeCtx:    lifeCtx,
		lifeCancel: lifeCancel,
		breakers:   make(map[JobKind]*breaker),
		jobs:       make(map[string]*Job),
		flights:    make(map[string]*Job),
		inflight:   make(map[JobKind]int),
		maxSettled: maxSettledJobs,
	}
	for _, kind := range Kinds() {
		s.breakers[kind] = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	s.stats.WALRejected.Add(uint64(rejected))
	s.stats.register(s.reg)
	s.reg.Gauge("serve.jobs.tracked", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(len(s.jobs))
	})
	if err := s.replay(pending); err != nil {
		lifeCancel()
		return nil, err
	}
	return s, nil
}

// replay recovers the journal's pending jobs: each is either already in
// the cache (the process died between storing the result and marking
// the journal — complete it without re-executing) or re-queued for
// execution. Replayed jobs bypass the breaker and concurrency checks:
// they were accepted once already.
func (s *Server) replay(pending []walPending) error {
	for _, p := range pending {
		s.stats.WALReplayed.Add(1)
		s.mu.Lock()
		j := s.newJobLocked(p.Key, p.Spec, s.effectiveTimeout(p.Spec.TimeoutMS))
		s.flights[p.Key] = j
		s.mu.Unlock()
		j.log.appendf(PhaseReplayed, "recovered from journal (accepted by a previous process)")
		s.logf("serve: replaying journaled job %s key %.12s…", j.id, j.key)

		if body, outcome, _ := s.store.Get(p.Key); outcome == Hit {
			// Completed before the crash; only the done marker was lost.
			s.stats.CacheHits.Add(1)
			s.walDone(j.key)
			s.settleFromBody(j, body)
			continue
		}
		s.mu.Lock()
		j.executing = true
		s.inflight[j.kind]++
		s.mu.Unlock()
		if err := s.pool.Submit(keyShard(p.Key), func() { s.run(j) }); err != nil {
			return fmt.Errorf("serve: replay %s: %w", p.Key, err)
		}
	}
	return nil
}

// newJobLocked allocates a Job and registers it under its id; the
// caller holds s.mu and registers the flight when the job may execute.
func (s *Server) newJobLocked(key string, spec JobSpec, timeout time.Duration) *Job {
	s.seq++
	j := &Job{
		id:      jobID(s.seq),
		key:     key,
		kind:    spec.Kind,
		spec:    &spec,
		timeout: timeout,
		log:     new(eventLog),
		done:    make(chan struct{}),
		state:   stateQueued,
	}
	s.jobs[j.id] = j
	return j
}

func jobID(n int) string { return fmt.Sprintf("j%06d", n) }

// effectiveTimeout resolves a job's deadline from its requested
// TimeoutMS and the server's default/max policy.
func (s *Server) effectiveTimeout(requestedMS int) time.Duration {
	d := s.opts.DefaultTimeout
	if requestedMS > 0 {
		d = time.Duration(requestedMS) * time.Millisecond
	}
	if s.opts.MaxTimeout > 0 && d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}

// Store exposes the underlying result store (the benchmark reads
// stored results through it to check them).
func (s *Server) Store() *Store { return s.store }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}

// keyShard routes identical keys to one pool shard, so even a missed
// dedup would serialize rather than race.
func keyShard(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// ListenAndServe binds opts.Addr and serves until ctx is cancelled,
// then shuts down gracefully: stop accepting, finish in-flight
// handlers, drain the worker pool (queued jobs still run to a stored
// result within the drain window).
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.logf("serve: listening on http://%s (cache %s, %d shards)", ln.Addr(), s.store.Dir(), s.pool.Shards())
	return s.Serve(ctx, ln)
}

// Serve runs the service on an existing listener (tests use an
// ephemeral port). It owns the listener and the graceful drain:
// on ctx cancellation intake stops, queued and in-flight jobs get
// DrainWindow to finish, and whatever is still running after that is
// cancelled through the lifecycle context — those jobs stay pending in
// the journal and replay on the next start.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.stop()
		return err
	case <-ctx.Done():
	}
	s.logf("serve: shutting down")
	s.draining.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		s.logf("serve: shutdown: %v", err)
	}
	<-errc // http.ErrServerClosed
	s.stop()
	s.logf("serve: drained")
	return nil
}

// stop drains the pool under the drain window, cancels whatever
// outlives it, and closes the journal. Safe to call more than once.
func (s *Server) stop() {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		timer := time.AfterFunc(s.opts.DrainWindow, s.lifeCancel)
		s.pool.Drain()
		timer.Stop()
		s.lifeCancel()
		if err := s.wal.Close(); err != nil {
			s.logf("serve: %v", err)
		}
	})
}

// Close shuts the server down outside Serve: drains the pool (within
// the drain window) and closes the journal. Tests use it to release
// the cache directory before a restart.
func (s *Server) Close() { s.stop() }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeView writes a job view as compact JSON with body, a stored result
// the store has just authenticated, spliced in verbatim as its "result"
// member. body is MarshalResult output, compact JSON plus a newline, so
// it needs no second validation or indentation pass; only the newline
// is dropped. An empty body writes the view alone.
func writeView(w http.ResponseWriter, code int, v JobView, body []byte) {
	v.Result = nil
	head, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "render job %s: %v", v.ID, err)
		return
	}
	body = bytes.TrimSuffix(body, []byte("\n"))
	tail := "\n"
	if len(body) > 0 {
		head = append(head[:len(head)-1], `,"result":`...)
		tail = "}\n"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(body)+len(tail)))
	w.WriteHeader(code)
	w.Write(head)
	w.Write(body)
	io.WriteString(w, tail)
}

// shed refuses a submission with 503 + Retry-After and counts it.
func (s *Server) shed(w http.ResponseWriter, retryAfter time.Duration, format string, args ...any) {
	s.stats.Shed.Add(1)
	if retryAfter < time.Second {
		retryAfter = time.Second
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds()+0.999)))
	httpError(w, http.StatusServiceUnavailable, format, args...)
}

// handleSubmit is POST /v1/jobs: canonicalize, consult the store, dedupe
// a miss against flights, and only then — behind the breaker and
// concurrency limits, through the journal — queue an execution.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	key, canon, err := Key(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.stats.Submitted.Add(1)

	// A cache hit registers no flight, so a concurrent resubmission of a
	// settled job is always a hit, never a dedupe. Cache hits are served
	// even while shedding: they cost no execution.
	body, outcome, cerr := s.store.Get(key)
	s.mu.Lock()
	if outcome != Hit {
		if leader, ok := s.flights[key]; ok {
			s.mu.Unlock()
			s.stats.Deduped.Add(1)
			s.writeJob(w, http.StatusOK, leader, true)
			return
		}
	}
	j := s.newJobLocked(key, canon, s.effectiveTimeout(spec.TimeoutMS))
	if outcome != Hit {
		s.flights[key] = j
	}
	s.mu.Unlock()
	j.log.appendf(PhaseQueued, "%s job %s key %s", canon.Kind, j.id, key)

	if outcome == Miss {
		// A leader may have stored its result and settled between the
		// lookup and the registration; look again so the key still
		// executes exactly once.
		body, outcome, cerr = s.store.Get(key)
	}
	switch outcome {
	case Hit:
		s.stats.CacheHits.Add(1)
		s.settleFromBody(j, body)
		v, _ := j.view(false)
		writeView(w, http.StatusOK, v, body)
		return
	case Rejected:
		s.stats.CacheRejected.Add(1)
		s.logf("%v (recomputing)", cerr)
		j.log.appendf(PhaseRejected, "%v", cerr)
	default:
		s.stats.CacheMisses.Add(1)
	}

	unregister := func() {
		s.mu.Lock()
		delete(s.jobs, j.id)
		delete(s.flights, key)
		s.mu.Unlock()
		j.log.close()
	}

	// Execution needed: check the kind's circuit breaker and concurrency
	// limit before committing to it.
	now := time.Now()
	if ok, retryAfter := s.breakerFor(canon.Kind).allow(now); !ok {
		unregister()
		s.shed(w, retryAfter, "%s circuit open (recent failures); retry later", canon.Kind)
		return
	}
	s.mu.Lock()
	if s.opts.KindConcurrency > 0 && s.inflight[canon.Kind] >= s.opts.KindConcurrency {
		s.mu.Unlock()
		unregister()
		s.shed(w, time.Second, "%s concurrency limit reached; retry later", canon.Kind)
		return
	}
	j.executing = true
	s.inflight[canon.Kind]++
	s.mu.Unlock()

	// Journal the acceptance before queueing: from here the job either
	// reaches a terminal state or replays after a crash.
	if err := s.wal.Append(walRecord{Op: walAccept, Key: key, Spec: &canon}); err != nil {
		s.logf("%v", err)
	}
	if err := s.pool.Submit(keyShard(key), func() { s.run(j) }); err != nil {
		s.walDone(key) // never queued; the client sees the refusal
		s.mu.Lock()
		s.inflight[canon.Kind]--
		j.executing = false
		s.mu.Unlock()
		unregister()
		if errors.Is(err, parallel.ErrDraining) {
			s.shed(w, time.Second, "server is draining")
		} else {
			s.shed(w, time.Second, "job queue full, retry later")
		}
		return
	}
	s.writeJob(w, http.StatusAccepted, j, false)
}

func (s *Server) breakerFor(kind JobKind) *breaker {
	if b, ok := s.breakers[kind]; ok {
		return b
	}
	// Unreachable for validated specs; keep a permissive fallback.
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.breakers[kind]; ok {
		return b
	}
	b := newBreaker(s.opts.BreakerThreshold, s.opts.BreakerCooldown)
	s.breakers[kind] = b
	return b
}

// walDone marks a job terminal in the journal, tolerating journal
// errors (worst case the job replays once more).
func (s *Server) walDone(key string) {
	if err := s.wal.Append(walRecord{Op: walDone, Key: key}); err != nil {
		s.logf("%v", err)
	}
}

// run executes one job on a pool worker: attempts with retry/backoff
// for transient failures, deterministic failures cached as failed
// results, deadline and shutdown cancellation told apart at the end.
func (s *Server) run(j *Job) {
	j.mu.Lock()
	j.state = stateRunning
	spec := *j.spec
	j.mu.Unlock()
	s.stats.Executed.Add(1)
	j.log.appendf(PhaseStarted, "executing %s job (workers=%d)", j.kind, parallel.Workers(s.opts.Workers))

	ctx := s.lifeCtx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	policy := RetryPolicy{MaxAttempts: s.opts.MaxAttempts, Base: s.opts.RetryBase, Max: s.opts.RetryMax}

	var attempts []Attempt
	for att := 0; ; att++ {
		if att > 0 {
			s.stats.Retries.Add(1)
		}
		res, err := s.attempt(ctx, j, spec, att)
		if err == nil {
			res.Key = j.key
			res.Attempts = attempts
			body, merr := MarshalResult(res)
			if merr != nil {
				s.failTerminal(j, merr, true)
				return
			}
			// A settled job serves its result from the store alone, so a
			// result the store refused is a failure, not cached.
			if perr := s.store.Put(j.key, body); perr != nil {
				s.failTerminal(j, fmt.Errorf("result not stored: %w", perr), true)
				return
			}
			s.stats.Completed.Add(1)
			s.walDone(j.key)
			s.breakerFor(j.kind).record(true, time.Now())
			s.settle(j, true, false, "")
			return
		}

		switch class := Classify(err); class {
		case ClassAborted:
			if s.lifeCtx.Err() != nil {
				// Server shutdown: no done marker — the journal keeps the
				// job pending and the next start replays it, so the
				// accepted job is not silently lost.
				s.logf("serve: job %s cancelled by shutdown (will replay)", j.id)
				s.stats.Failed.Add(1)
				s.settle(j, false, false, "server shutting down; job will resume on restart")
				return
			}
			// The job's own deadline: a terminal, client-visible failure.
			s.stats.TimedOut.Add(1)
			s.logf("serve: job %s exceeded its %v deadline", j.id, j.timeout)
			s.failTerminal(j, fmt.Errorf("job deadline (%v) exceeded: %w", j.timeout, err), true)
			return
		case ClassTransient:
			if att+1 < policy.MaxAttempts {
				backoff := policy.Backoff(att, j.key)
				attempts = append(attempts, Attempt{N: att, Class: class.String(), Error: err.Error(), BackoffMS: backoff.Milliseconds()})
				j.log.appendf(PhaseRetry, "attempt %d failed (%v): retrying in %v", att, err, backoff)
				s.logf("serve: job %s attempt %d transient failure: %v (retry in %v)", j.id, att, err, backoff)
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
					continue
				case <-ctx.Done():
					t.Stop()
					// Re-enter the loop; the next attempt sees the
					// cancelled context and takes the aborted path.
					continue
				}
			}
			attempts = append(attempts, Attempt{N: att, Class: class.String(), Error: err.Error()})
			s.failTerminal(j, fmt.Errorf("%d attempts exhausted, last: %w", policy.MaxAttempts, err), true)
			return
		default: // deterministic: cache the failure, never retry
			// cachedError reads this shape: error is the fourth member.
			res := &JobResult{Kind: j.kind, Key: j.key, Error: err.Error(), Attempts: attempts}
			body, merr := MarshalResult(res)
			if merr != nil {
				s.failTerminal(j, err, true)
				return
			}
			stored := true
			if perr := s.store.Put(j.key, body); perr != nil {
				s.logf("%v", perr)
				stored = false
			}
			s.stats.Failed.Add(1)
			s.walDone(j.key)
			s.breakerFor(j.kind).record(false, time.Now())
			s.logf("serve: job %s failed deterministically (stored %v): %v", j.id, stored, err)
			s.settle(j, stored, false, err.Error())
			return
		}
	}
}

// attempt runs one try of a job's analysis: chaos injection first, then
// the runner under the attempt context, with panics recovered into
// parallel.PanicError — a pool shard must survive a buggy (or
// chaos-poisoned) runner.
func (s *Server) attempt(ctx context.Context, j *Job, spec JobSpec, att int) (res *JobResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			if ce, ok := v.(*faults.ChaosError); ok {
				err = &parallel.PanicError{Index: att, Value: ce, Stack: string(debug.Stack())}
				return
			}
			err = &parallel.PanicError{Index: att, Value: v, Stack: string(debug.Stack())}
		}
	}()
	if d := s.opts.Chaos.Decide(j.key, att); d.Action != faults.ChaosNone {
		switch d.Action {
		case faults.ChaosPanic:
			panic(&faults.ChaosError{Action: d.Action, Key: j.key, Att: att})
		case faults.ChaosStall:
			return nil, &faults.ChaosError{Action: d.Action, Key: j.key, Att: att}
		case faults.ChaosSlow:
			t := time.NewTimer(d.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	runner, ok := Runner(spec.Kind)
	if !ok { // unreachable: Key validated the kind
		return nil, fmt.Errorf("serve: no runner for kind %q", spec.Kind)
	}
	bridge := &probeBridge{log: j.log}
	res, err = runner.Run(ctx, spec, RunOpts{
		Workers: s.opts.Workers,
		Log:     func(format string, args ...any) { j.log.appendf(PhaseLog, format, args...) },
		Probe:   bridge,
	})
	if err == nil {
		if n := bridge.count(); n > 0 {
			j.log.appendf(PhaseLog, "probe emitted %d events", n)
		}
	}
	return res, err
}

// failTerminal finishes a job in a visible, journaled failure (without
// caching it — transient exhaustion and deadlines may succeed on a
// fresh submission).
func (s *Server) failTerminal(j *Job, err error, walDone bool) {
	s.stats.Failed.Add(1)
	if walDone {
		s.walDone(j.key)
	}
	s.breakerFor(j.kind).record(false, time.Now())
	s.logf("serve: job %s failed: %v", j.id, err)
	s.settle(j, false, false, err.Error())
}

// settleFromBody finishes a job from a result body read from the store,
// surfacing cached deterministic failures as failed jobs.
func (s *Server) settleFromBody(j *Job, body []byte) {
	s.settle(j, true, true, cachedError(body))
}

// cachedError returns the error a stored result body records, or "" for
// a success. run builds a failure result only in its deterministic
// branch, from kind, key, pass, error and attempts, so error is the
// fourth member of every failure body. The walk reads only the first
// four member names and never scans a success body's large members.
func cachedError(body []byte) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return ""
	}
	for i := 0; i < 4 && dec.More(); i++ {
		switch name, err := dec.Token(); {
		case err != nil:
			return ""
		case name == "error":
			var msg string
			if dec.Decode(&msg) != nil {
				return ""
			}
			return msg
		case i == 3: // a success: stop before its fourth value
			return ""
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return ""
		}
	}
	return ""
}

// settle moves a job to its terminal state as a compact record, emits
// the terminal event, releases the flight and execution slot, closes
// the stream and, past the table's capacity, evicts the oldest settled
// record.
func (s *Server) settle(j *Job, stored, cached bool, errMsg string) {
	j.mu.Lock()
	j.spec = nil
	j.stored = stored
	j.cached = cached
	j.errMsg = errMsg
	switch {
	case errMsg != "":
		j.state = stateFailed
	default:
		j.state = stateDone
	}
	j.mu.Unlock()

	s.mu.Lock()
	if s.flights[j.key] == j {
		delete(s.flights, j.key)
	}
	if j.executing {
		s.inflight[j.kind]--
		j.executing = false
	}
	s.settled = append(s.settled, j.id)
	for len(s.settled) > s.maxSettled {
		delete(s.jobs, s.settled[0])
		s.settled = s.settled[1:]
	}
	s.mu.Unlock()

	switch {
	case errMsg != "":
		j.log.finish(PhaseFailed, errMsg)
	case cached:
		j.log.finish(PhaseCached, "served from cache entry "+j.key)
	default:
		j.log.finish(PhaseDone, "result stored under "+j.key)
	}
	close(j.done)
}

// job looks up a tracked job, or answers the request itself: 410 for an
// id this server issued but no longer tracks (its settled record was
// evicted), 404 for any other.
func (s *Server) job(w http.ResponseWriter, id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	seq := s.seq
	s.mu.Unlock()
	if ok {
		return j, true
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n > 0 && n <= seq && jobID(n) == id {
		httpError(w, http.StatusGone, "job %s expired: its record left the job table; resubmit its spec", id)
	} else {
		httpError(w, http.StatusNotFound, "no job %q", id)
	}
	return nil, false
}

// writeJob writes j's view. A settled job that stored a body carries it,
// re-read through the store, which authenticates it again; if the entry
// is now missing or rejected the answer is 410, never a view without
// its result or with a wrong one.
func (s *Server) writeJob(w http.ResponseWriter, code int, j *Job, deduped bool) {
	v, stored := j.view(deduped)
	if !stored {
		writeView(w, code, v, nil)
		return
	}
	body, outcome, err := s.store.Get(j.key)
	if outcome == Hit {
		writeView(w, code, v, body)
		return
	}
	why := "its cache entry is gone"
	if outcome == Rejected {
		s.stats.CacheRejected.Add(1)
	}
	if err != nil {
		why = err.Error()
	}
	httpError(w, http.StatusGone, "job %s result expired: %s; resubmit its spec", j.id, why)
}

// handleJob is GET /v1/jobs/{id}, with ?wait=<duration> blocking until
// the job settles (or the wait/request expires — the job view then
// reports whatever state it reached).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r.PathValue("id"))
	if !ok {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad wait %q: %v", waitStr, err)
			return
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
			return
		}
	}
	s.writeJob(w, http.StatusOK, j, false)
}

// handleList is GET /v1/jobs: every tracked job, id-ordered, without
// result bodies.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		v, _ := j.view(false)
		views = append(views, v)
	}
	s.mu.Unlock()
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	writeJSON(w, http.StatusOK, views)
}

// handleHealthz is GET /healthz: liveness — the process is up and
// serving HTTP. Always 200; drain state is reported, not failed, so
// orchestrators do not kill a server mid-drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
	})
}

// handleReadyz is GET /readyz: readiness to take new work — 503 while
// draining or while any kind's circuit is open, with the per-kind
// breaker and in-flight detail either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	draining := s.draining.Load()
	breakers := map[string]string{}
	ready := !draining
	for _, kind := range Kinds() {
		st := s.breakerFor(kind).state(now)
		breakers[string(kind)] = st
		if st == "open" {
			ready = false
		}
	}
	inflight := map[string]int{}
	s.mu.Lock()
	for kind, n := range s.inflight {
		if n > 0 {
			inflight[string(kind)] = n
		}
	}
	s.mu.Unlock()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ready":    ready,
		"draining": draining,
		"breakers": breakers,
		"inflight": inflight,
	})
}

// handleEvents is GET /v1/jobs/{id}/events: the job's progress stream,
// as Server-Sent Events when the client asks for text/event-stream and
// as JSON Lines otherwise. The stream replays history, follows live
// events, and ends when the job settles.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r.PathValue("id"))
	if !ok {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(ev JobEvent) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	replay, live, cancel := j.log.subscribe()
	defer cancel()
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	if live == nil {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if !emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleStats is GET /v1/stats: the obs registry snapshot as a flat
// name → value JSON object.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot().Map())
}
