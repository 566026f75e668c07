package serve

import (
	"os"
	"strings"
	"testing"

	"pandora/internal/journal"
)

func walSecret(t *testing.T, dir string) []byte {
	t.Helper()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return store.secret
}

// simulateCrashedJob forges the on-disk state of a server that crashed
// after accepting spec but before storing its result: an authenticated
// accept record with no done marker, appended to dir's journal. It lets
// the restart-recovery tests exercise replay without killing a process
// mid-job, and returns the job key the next server must recover.
func simulateCrashedJob(t *testing.T, dir string, spec JobSpec) string {
	t.Helper()
	key, canon, err := Key(spec)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	w, _, _, err := openWAL(dir, walSecret(t, dir), nil)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	walAppend(t, w, walRecord{Op: walAccept, Key: key, Spec: &canon})
	return key
}

// journalPending re-reads the server's on-disk journal and returns how many
// accepted jobs it still holds open. A journal it cannot read reports
// none.
func (s *Server) journalPending() int {
	p, _, _ := replayWAL(walPath(s.store.Dir()), s.store.secret)
	return len(p)
}

// walAppend journals records in order and closes the journal.
func walAppend(t *testing.T, w *journal.Writer, recs ...walRecord) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("append %s %s: %v", r.Op, r.Key, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestWALAcceptDoneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	secret := walSecret(t, dir)
	w, pending, rejected, err := openWAL(dir, secret, nil)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	if len(pending) != 0 || rejected != 0 {
		t.Fatalf("fresh journal: pending=%d rejected=%d", len(pending), rejected)
	}
	specA := JobSpec{Kind: KindCheck, Programs: 4, Masks: 1, Seed: 7}
	specB := JobSpec{Kind: KindScan, Scenario: "stlf"}
	walAppend(t, w,
		walRecord{Op: walAccept, Key: "key-a", Spec: &specA},
		walRecord{Op: walAccept, Key: "key-b", Spec: &specB},
		walRecord{Op: walDone, Key: "key-a"})

	// Reopen: only the unfinished job is pending, with its spec intact.
	w2, pending, rejected, err := openWAL(dir, secret, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if rejected != 0 {
		t.Fatalf("reopen rejected %d records from a clean journal", rejected)
	}
	if len(pending) != 1 || pending[0].Key != "key-b" || pending[0].Spec.Scenario != "stlf" {
		t.Fatalf("pending = %+v, want key-b with its spec", pending)
	}

	// Compaction rewrote the journal to the pending set only.
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if strings.Contains(string(raw), "key-a") {
		t.Fatalf("compacted journal still carries the finished job:\n%s", raw)
	}
	if !strings.Contains(string(raw), "key-b") {
		t.Fatalf("compacted journal lost the pending job:\n%s", raw)
	}
}

func TestWALDoneForUnknownKeyIgnored(t *testing.T) {
	dir := t.TempDir()
	secret := walSecret(t, dir)
	w, _, _, err := openWAL(dir, secret, nil)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	walAppend(t, w, walRecord{Op: walDone, Key: "never-accepted"})
	w2, pending, rejected, err := openWAL(dir, secret, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if len(pending) != 0 || rejected != 0 {
		t.Fatalf("pending=%d rejected=%d, want 0/0", len(pending), rejected)
	}
}

// TestWALReacceptAfterDonePending: a key accepted, finished and then
// accepted again (a resubmission of a job that failed without caching)
// is pending again; the second accept must not be mistaken for a
// duplicate of the first.
func TestWALReacceptAfterDonePending(t *testing.T) {
	dir := t.TempDir()
	secret := walSecret(t, dir)
	w, _, _, err := openWAL(dir, secret, nil)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	spec := JobSpec{Kind: KindScan, Scenario: "stlf"}
	walAppend(t, w,
		walRecord{Op: walAccept, Key: "key-a", Spec: &spec},
		walRecord{Op: walDone, Key: "key-a"},
		walRecord{Op: walAccept, Key: "key-a", Spec: &spec})
	w2, pending, rejected, err := openWAL(dir, secret, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if len(pending) != 1 || pending[0].Key != "key-a" || rejected != 0 {
		t.Fatalf("pending=%+v rejected=%d, want key-a pending, 0 rejected", pending, rejected)
	}
}

// TestWALForeignJournalStartsFresh: a jobs.wal without this format's
// header — here a record in the headerless pre-journal format — is
// refused whole: its lines count as rejected, nothing replays, and the
// server gets a fresh, working journal.
func TestWALForeignJournalStartsFresh(t *testing.T) {
	dir := t.TempDir()
	secret := walSecret(t, dir)
	old := `{"seq":0,"op":"accept","key":"key-a","spec":{"kind":"scan","scenario":"stlf"},"mac":"00"}` + "\n" +
		`{"seq":1,"op":"done","key":"key-b","mac":"00"}` + "\n"
	if err := os.WriteFile(walPath(dir), []byte(old), 0o600); err != nil {
		t.Fatalf("write old journal: %v", err)
	}
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, format) }
	w, pending, rejected, err := openWAL(dir, secret, logf)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	if len(pending) != 0 || rejected != 2 || len(logged) != 1 {
		t.Fatalf("pending=%d rejected=%d logged=%q, want 0, 2, one line", len(pending), rejected, logged)
	}
	spec := JobSpec{Kind: KindScan, Scenario: "stlf"}
	walAppend(t, w, walRecord{Op: walAccept, Key: "key-c", Spec: &spec})
	w2, pending, rejected, err := openWAL(dir, secret, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if len(pending) != 1 || pending[0].Key != "key-c" || rejected != 0 {
		t.Fatalf("after restart: pending=%+v rejected=%d, want key-c, 0", pending, rejected)
	}
}
