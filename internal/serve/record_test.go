package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
)

// getRaw GETs url and returns the status and the raw response body.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, b
}

// postRaw submits a spec and returns the status and the raw response.
func postRaw(t *testing.T, base string, spec JobSpec) (int, []byte) {
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
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read submit response: %v", err)
	}
	return resp.StatusCode, b
}

// resultOf checks that a job response is valid JSON and returns its
// result member byte for byte.
func resultOf(t *testing.T, raw []byte) (JobView, []byte) {
	t.Helper()
	if !json.Valid(raw) {
		t.Fatalf("response is not valid JSON: %.200s", raw)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	return v, v.Result
}

// storedBody is the store's authenticated body for key without its
// trailing newline: what a job view must carry as its result.
func storedBody(t *testing.T, srv *Server, key string) []byte {
	t.Helper()
	body, outcome, err := srv.Store().Get(key)
	if outcome != Hit {
		t.Fatalf("store get %.12s: %v (%v), want hit", key, outcome, err)
	}
	return bytes.TrimSuffix(body, []byte("\n"))
}

// A settled job's GET result and a cache-hit POST's result are the
// stored body verbatim, and the views are compact JSON.
func TestResultSplicedVerbatimFromStore(t *testing.T) {
	base, srv := startServer(t)
	spec := JobSpec{Kind: KindScan, Scenario: "stlf"}
	first, _ := post(t, base, spec)
	wait(t, base, first.ID)

	code, raw := getRaw(t, base+"/v1/jobs/"+first.ID)
	if code != http.StatusOK {
		t.Fatalf("GET settled job: HTTP %d: %s", code, raw)
	}
	v, got := resultOf(t, raw)
	want := storedBody(t, srv, first.Key)
	if !bytes.Equal(got, want) {
		t.Fatalf("GET result is not the stored body:\n%.200s\nvs\n%.200s", got, want)
	}
	if v.Spec != nil {
		t.Fatalf("settled view still carries its spec: %+v", v.Spec)
	}
	if bytes.Contains(raw, []byte("\n  ")) {
		t.Fatalf("view is indented, want compact JSON")
	}

	code, raw = postRaw(t, base, spec)
	if code != http.StatusOK {
		t.Fatalf("cache-hit POST: HTTP %d: %s", code, raw)
	}
	v, got = resultOf(t, raw)
	if !v.Cached || !bytes.Equal(got, want) {
		t.Fatalf("cache-hit POST: cached=%v, result equal to stored body=%v", v.Cached, bytes.Equal(got, want))
	}

	// An in-flight view still shows the spec it runs.
	code, raw = postRaw(t, base, JobSpec{Kind: KindCheck, Programs: 40, Masks: 1, Seed: 2})
	if v, _ := resultOf(t, raw); code == http.StatusAccepted && v.State != string(stateDone) && v.Spec == nil {
		t.Fatalf("in-flight view has no spec: %s", raw)
	}
}

// A settled job whose store entry is deleted or tampered answers 410,
// never a view without its result or with a wrong one.
func TestSettledResultExpires(t *testing.T) {
	base, srv := startServer(t)
	badScan := JobSpec{Kind: KindScan, Source: "not assembly\n"}
	for _, tc := range []struct {
		name  string
		spec  JobSpec
		state jobState
		spoil func(path string) error
	}{
		{"deleted", smallCheck, stateDone, os.Remove},
		{"tampered", JobSpec{Kind: KindScan, Scenario: "stlf"}, stateDone, func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)-2] ^= 0xff
			return os.WriteFile(path, raw, 0o644)
		}},
		{"cached-failure-deleted", badScan, stateFailed, os.Remove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, _ := post(t, base, tc.spec)
			if final := wait(t, base, v.ID); final.State != string(tc.state) || len(final.Result) == 0 {
				t.Fatalf("state=%s result=%d bytes error=%q; want %s with a stored body", final.State, len(final.Result), final.Error, tc.state)
			}
			rejected := srv.stats.CacheRejected.Load()
			if err := tc.spoil(srv.Store().EntryPath(v.Key)); err != nil {
				t.Fatal(err)
			}
			code, raw := getRaw(t, base+"/v1/jobs/"+v.ID)
			if code != http.StatusGone || !bytes.Contains(raw, []byte("result expired")) {
				t.Fatalf("GET spoiled job: HTTP %d %s; want 410 result expired", code, raw)
			}
			if tc.name == "tampered" && srv.stats.CacheRejected.Load() != rejected+1 {
				t.Fatalf("tampered entry not counted as rejected")
			}
		})
	}
}

// A result the store cannot take settles the job failed and uncached,
// with an error naming the store failure; the job is not completed.
func TestFailedPutSettlesFailedUncached(t *testing.T) {
	base, srv := startServer(t)
	key, _, err := Key(smallCheck)
	if err != nil {
		t.Fatal(err)
	}
	// A directory at the entry path: Put's rename fails even for root.
	if err := os.MkdirAll(srv.Store().EntryPath(key)+"/blocker", 0o755); err != nil {
		t.Fatal(err)
	}
	v, _ := post(t, base, smallCheck)
	final := wait(t, base, v.ID)
	if final.State != string(stateFailed) || final.Cached || len(final.Result) != 0 ||
		!strings.Contains(final.Error, "result not stored") || !strings.Contains(final.Error, "store put") {
		t.Fatalf("state=%s cached=%v result=%d bytes error=%q; want an uncached store failure",
			final.State, final.Cached, len(final.Result), final.Error)
	}
	if c, f := srv.stats.Completed.Load(), srv.stats.Failed.Load(); c != 0 || f != 1 {
		t.Fatalf("completed=%d failed=%d, want 0 and 1", c, f)
	}
	if pending := srv.journalPending(); pending != 0 {
		t.Fatalf("journal still pending: %d", pending)
	}
}

// The job table keeps at most maxSettled settled records however many
// jobs run, so live heap stays flat. An evicted id answers 410 on both
// routes, and ?wait= still delivers every job's result.
func TestJobTableBounded(t *testing.T) {
	base, srv := startServer(t)
	const capacity = 8
	srv.mu.Lock()
	srv.maxSettled = capacity
	srv.mu.Unlock()

	spec := func(i int) JobSpec {
		return JobSpec{Kind: KindScan, Source: fmt.Sprintf(".secret 0x100, 8, key\n# job %d\nhalt\n", i)}
	}
	submit := func(i int) {
		v, _ := post(t, base, spec(i))
		final := wait(t, base, v.ID)
		if final.State != string(stateDone) {
			t.Fatalf("job %d: state=%s error=%q", i, final.State, final.Error)
		}
		if want := storedBody(t, srv, v.Key); !bytes.Equal(final.Result, want) {
			t.Fatalf("job %d: result differs from the stored body", i)
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 40; i++ {
		submit(i)
	}
	h0 := liveHeap()
	const more = 400 // cold jobs and as many cache hits
	for i := 40; i < 40+more; i++ {
		submit(i)
		submit(i)
	}
	h1 := liveHeap()
	if grown := int64(h1) - int64(h0); grown > 2*more*100 {
		t.Errorf("live heap grew %d B over %d submissions, want under 100 B each", grown, 2*more)
	}

	var stats map[string]uint64
	_, raw := getRaw(t, base+"/v1/stats")
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats["serve.jobs.tracked"]; got > capacity {
		t.Fatalf("serve.jobs.tracked = %d, want at most %d", got, capacity)
	}
	for _, path := range []string{"/v1/jobs/j000001", "/v1/jobs/j000001/events"} {
		if code, raw := getRaw(t, base+path); code != http.StatusGone || !bytes.Contains(raw, []byte("expired")) {
			t.Fatalf("GET %s: HTTP %d %s; want 410 expired", path, code, raw)
		}
	}
	for _, id := range []string{"j999999", "j1", "nonsense"} {
		if code, _ := getRaw(t, base+"/v1/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("GET never-issued id %s: HTTP %d, want 404", id, code)
		}
	}
	var views []JobView
	_, raw = getRaw(t, base+"/v1/jobs")
	if err := json.Unmarshal(raw, &views); err != nil || len(views) != capacity {
		t.Fatalf("list: %d views (%v), want %d", len(views), err, capacity)
	}
}

// Journal replay completes every pending job even when the replayed
// jobs outnumber the job table.
func TestReplayWithBoundedTable(t *testing.T) {
	dir := t.TempDir()
	var keys []string
	for i := 0; i < 6; i++ {
		keys = append(keys, simulateCrashedJob(t, dir, JobSpec{Kind: KindCheck, Programs: 2, Masks: 1, Seed: int64(100 + i)}))
	}
	base, srv := startServerWith(t, Options{CacheDir: dir})
	srv.mu.Lock()
	srv.maxSettled = 2
	srv.mu.Unlock()
	for i := range keys {
		// Replayed jobs took the first ids; wait on each while tracked.
		id := jobID(i + 1)
		if code, _ := getRaw(t, base+"/v1/jobs/"+id+"?wait=30s"); code != http.StatusOK && code != http.StatusGone {
			t.Fatalf("wait on replayed job %s: HTTP %d", id, code)
		}
	}
	for _, key := range keys {
		storedBody(t, srv, key)
	}
	if got := srv.stats.WALReplayed.Load(); got != uint64(len(keys)) {
		t.Fatalf("wal_replayed = %d, want %d", got, len(keys))
	}
	if pending := srv.journalPending(); pending != 0 {
		t.Fatalf("journal still pending: %d", pending)
	}
	srv.mu.Lock()
	tracked := len(srv.jobs)
	srv.mu.Unlock()
	if tracked > 2 {
		t.Fatalf("tracked %d jobs, want at most 2", tracked)
	}
}

// A job's event log keeps its first maxJobEvents-1 events and its
// terminal event, which says how many were dropped; seq stays gapless
// in the replay and in a live stream alike.
func TestEventLogCapped(t *testing.T) {
	l := new(eventLog)
	_, live, cancel := l.subscribe()
	defer cancel()
	const appended = 3 * maxJobEvents
	for i := 0; i < appended; i++ {
		l.appendf(PhaseLog, "line %d", i)
	}
	l.finish(PhaseDone, "result stored")
	replay, _, _ := l.subscribe()
	var streamed []JobEvent
	for ev := range live {
		streamed = append(streamed, ev)
	}
	for name, evs := range map[string][]JobEvent{"replay": replay, "live": streamed} {
		if len(evs) != maxJobEvents {
			t.Fatalf("%s: %d events, want %d", name, len(evs), maxJobEvents)
		}
		for i, ev := range evs {
			if ev.Seq != i {
				t.Fatalf("%s: event %d has seq %d", name, i, ev.Seq)
			}
		}
		last := evs[len(evs)-1]
		want := fmt.Sprintf("result stored (%d events dropped)", appended-(maxJobEvents-1))
		if last.Phase != PhaseDone || last.Text != want {
			t.Fatalf("%s: terminal event %+v, want %s %q", name, last, PhaseDone, want)
		}
	}
}

// cachedError agrees with a full decode on cached failure bodies, with
// and without attempt history; TestRunnersCoverEveryKindDeterministically
// checks it on every kind's success body.
func TestCachedError(t *testing.T) {
	for _, res := range []*JobResult{
		{Kind: KindScan, Key: "k", Error: `asm: line 1: unknown op "not"`},
		{Kind: KindCheck, Key: "k", Error: "boom\n\t <&>", Attempts: []Attempt{
			{N: 0, Class: "transient", Error: "injected chaos panic", BackoffMS: 25},
			{N: 1, Class: "transient", Error: "error", BackoffMS: 50},
		}},
		{Kind: KindScan, Key: "k", Pass: true, Text: "clean", Metrics: map[string]float64{"error": 1}},
		{Kind: KindFault, Key: "k", Note: "error", Attempts: []Attempt{{N: 0, Class: "transient", Error: "x"}}},
	} {
		body, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := cachedError(body); got != res.Error {
			t.Fatalf("cachedError(%s) = %q, want %q", body, got, res.Error)
		}
	}
	for _, junk := range []string{"", "[]", "{", `{"kind":`, `{"error":7}`, "null", `{"a":1,"b":2,"c":3,"d":4,"error":"late"}`} {
		if got := cachedError([]byte(junk)); got != "" {
			t.Fatalf("cachedError(%q) = %q, want \"\"", junk, got)
		}
	}
}

// FuzzCachedError: cachedError never panics, and on every body
// MarshalResult makes from a result of the shape run writes — a runner's
// success, or a deterministic failure with its attempts — it agrees with
// a full decode.
func FuzzCachedError(f *testing.F) {
	f.Add("scan", "k", true, "report", "", "", uint8(0), []byte(`{"total":0}`))
	f.Add("check", "k", false, "", "boom \"quoted\"\n", "transient panic", uint8(2), []byte("{"))
	f.Fuzz(func(t *testing.T, kind, key string, pass bool, text, errMsg, attErr string, attempts uint8, raw []byte) {
		cachedError(raw)
		res := &JobResult{Kind: JobKind(kind), Key: key}
		for n := 0; n < int(attempts%4); n++ {
			res.Attempts = append(res.Attempts, Attempt{N: n, Class: "transient", Error: attErr, BackoffMS: int64(n)})
		}
		if errMsg != "" {
			res.Error = errMsg
		} else {
			res.Pass, res.Text, res.Note = pass, text, attErr
			res.Metrics = map[string]float64{"events": float64(len(text))}
			if json.Valid(raw) {
				res.Output = raw
			}
		}
		body, err := MarshalResult(res)
		if err != nil {
			t.Fatalf("MarshalResult: %v", err)
		}
		var full JobResult
		if err := json.Unmarshal(body, &full); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		if got := cachedError(body); got != full.Error {
			t.Fatalf("cachedError = %q, full decode = %q, body %s", got, full.Error, body)
		}
	})
}
