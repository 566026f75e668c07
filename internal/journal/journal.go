// Package journal is the append-only, authenticated, crash-tolerant
// record log behind the fault campaign's checkpoint and the job
// service's write-ahead log. A journal is a JSON-lines file whose line N
// is
//
//	{"seq":N,"rec":<raw JSON>,"mac":"<hex>"}
//
// with mac = HMAC-SHA256(key, seq as 8 big-endian bytes ‖ rec bytes).
// Line 0 holds the caller's header, naming what the journal belongs to;
// records follow, one per line, each fsynced as it is appended. Readers
// skip and count any record line that is torn, unparseable, moved or
// fails its MAC, so a crash mid-append or a flipped bit costs that one
// record. Reopening a journal means Read, then Create over the records
// kept: that compaction also drops a torn tail before anything is
// appended behind it.
package journal

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// MismatchError reports a journal whose header line is not the caller's:
// written for something else, in another format, or modified on disk.
type MismatchError struct {
	Path string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("journal %s: header does not match (foreign, old-format or tampered journal)", e.Path)
}

// Read returns the verified records of the journal at path, in order,
// and how many record lines it skipped as torn, unparseable or failing
// their MAC. A missing or empty file is an empty journal. A header line
// that differs from header, or fails its MAC, yields a *MismatchError,
// with rejected counting every line in the file. Any other error reading
// the file is returned.
func Read(path string, key []byte, header any) (recs []json.RawMessage, rejected int, err error) {
	want, err := json.Marshal(header)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: marshal header: %w", err)
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) || (err == nil && len(data) == 0) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
	if h, ok := verify(key, 0, lines[0]); !ok || !bytes.Equal(h, want) {
		return nil, len(lines), &MismatchError{Path: path}
	}
	for i, line := range lines[1:] {
		if rec, ok := verify(key, i+1, line); ok {
			recs = append(recs, rec)
		} else {
			rejected++
		}
	}
	return recs, rejected, nil
}

// verify parses one line and returns its record if the line carries
// sequence number seq and a valid MAC.
func verify(key []byte, seq int, line []byte) (json.RawMessage, bool) {
	var l struct {
		Seq int             `json:"seq"`
		Rec json.RawMessage `json:"rec"`
		MAC string          `json:"mac"`
	}
	if json.Unmarshal(line, &l) != nil || l.Seq != seq || l.Rec == nil ||
		!hmac.Equal([]byte(l.MAC), hex.AppendEncode(nil, mac(key, seq, l.Rec))) {
		return nil, false
	}
	return l.Rec, true
}

func mac(key []byte, seq int, rec []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(binary.BigEndian.AppendUint64(nil, uint64(seq)))
	h.Write(rec)
	return h.Sum(nil)
}

// appendLine encodes one journal line onto dst. rec must be one line of
// JSON: records come from json.Marshal or from Read.
func appendLine(dst, key []byte, seq int, rec []byte) []byte {
	return fmt.Appendf(dst, "{\"seq\":%d,\"rec\":%s,\"mac\":\"%x\"}\n", seq, rec, mac(key, seq, rec))
}

// Writer appends records to a journal; concurrent callers may share it.
type Writer struct {
	mu  sync.Mutex
	f   *os.File
	key []byte
	seq int
}

// Create writes a journal holding header and recs to path, replacing
// any file there, and returns a Writer appending after them. The new
// journal is written to a temporary file, fsynced and renamed over
// path, so a crash during Create leaves the old journal intact.
func Create(path string, key []byte, header any, recs []json.RawMessage) (*Writer, error) {
	h, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal header: %w", err)
	}
	buf := appendLine(nil, key, 0, h)
	for i, rec := range recs {
		buf = appendLine(buf, key, i+1, rec)
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	// The handle survives the rename and sits at the end of the file.
	return &Writer{f: f, key: key, seq: len(recs) + 1}, nil
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append marshals v and writes it as the next record. The record is
// durable when Append returns nil.
func (w *Writer) Append(v any) error {
	rec, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(appendLine(nil, w.key, w.seq, rec)); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	// The line is in the file, so the next one takes the next seq even
	// if the sync below fails.
	w.seq++
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Close releases the journal; appends after Close fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
