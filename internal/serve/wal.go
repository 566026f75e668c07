package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"pandora/internal/journal"
)

// The job journal makes accepted work crash-safe: every job the server
// accepts for execution is appended (and fsynced) to an append-only
// write-ahead log before it is queued, and marked done when it reaches
// a terminal state the client could observe (stored result, cached
// failure, exhausted retries, expired deadline). A job the process died
// holding — accepted, never marked done — is replayed on the next open,
// so an accepted job is either completed-and-cached or visibly failed,
// never silently lost. Jobs cancelled by a server shutdown are
// deliberately NOT marked done: they are the replay set.
//
// The file is an internal/journal journal keyed by the store secret: a
// record modified on disk, torn by a crash mid-append or moved to
// another line fails its HMAC and is skipped and counted, never
// replayed, and a journal whose header is not walHeader (including a
// headerless pre-journal jobs.wal) is refused whole and started afresh.
// Tampering can lose pending work, like deleting the file can, but
// cannot make the server run a spec it never accepted.

// walFile is the journal's name inside the cache directory.
const walFile = "jobs.wal"

// walHeader is the journal's header line: the record format tag.
const walHeader = "pandora-jobs-wal/1"

// walPath returns where the job journal for a cache directory lives.
func walPath(dir string) string { return filepath.Join(dir, walFile) }

type walOp string

const (
	walAccept walOp = "accept"
	walDone   walOp = "done"
)

// walRecord is one journal record.
type walRecord struct {
	Op   walOp    `json:"op"`
	Key  string   `json:"key"`
	Spec *JobSpec `json:"spec,omitempty"` // accept records only
}

// walPending is one accepted-but-unfinished job recovered on open; rec
// is its accept record as read, carried into the compacted journal.
type walPending struct {
	Key  string
	Spec JobSpec
	rec  json.RawMessage
}

// openWAL opens (creating if needed) the journal in dir, returning the
// append handle, the jobs left pending by the previous process in
// acceptance order, and how many records were rejected. The journal is
// compacted to the pending accepts, so it does not grow without bound
// across restarts. logf (nil = silent) hears about a refused journal.
func openWAL(dir string, secret []byte, logf func(string, ...any)) (*journal.Writer, []walPending, int, error) {
	pending, rejected, err := replayWAL(walPath(dir), secret)
	if errors.As(err, new(*journal.MismatchError)) {
		if logf != nil {
			logf("serve: %v; starting a fresh journal", err)
		}
	} else if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: wal: %w", err)
	}
	recs := make([]json.RawMessage, len(pending))
	for i, p := range pending {
		recs[i] = p.rec
	}
	w, err := journal.Create(walPath(dir), secret, walHeader, recs)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: wal: %w", err)
	}
	return w, pending, rejected, nil
}

// replayWAL reads a journal and reduces it to the pending set: accepts
// not yet followed by a done for their key, in acceptance order, with
// rejected counting the records the journal refused.
func replayWAL(path string, secret []byte) (pending []walPending, rejected int, err error) {
	recs, rejected, err := journal.Read(path, secret, walHeader)
	if err != nil {
		return nil, rejected, err
	}
	open := map[string]int{} // key → index into pending of its open accept
	for _, raw := range recs {
		var rec walRecord
		if json.Unmarshal(raw, &rec) != nil {
			continue // authenticated, so written by this code: unreachable
		}
		i, isOpen := open[rec.Key]
		switch {
		case rec.Op == walAccept && !isOpen && rec.Spec != nil:
			open[rec.Key] = len(pending)
			pending = append(pending, walPending{Key: rec.Key, Spec: *rec.Spec, rec: raw})
		case rec.Op == walDone && isOpen:
			pending[i].Key = "" // tombstone, filtered below
			delete(open, rec.Key)
		}
	}
	out := pending[:0]
	for _, p := range pending {
		if p.Key != "" {
			out = append(out, p)
		}
	}
	return out, rejected, nil
}
