package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

var (
	testKey    = []byte("test-key")
	testHeader = map[string]any{"format": "test", "version": 1}
)

type rec struct {
	N    int    `json:"n"`
	Name string `json:"name"`
}

// writeJournal creates a journal at a fresh path holding n records and
// returns the path.
func writeJournal(t testing.TB, dir string, n int) string {
	t.Helper()
	path := filepath.Join(dir, "j.journal")
	w, err := Create(path, testKey, testHeader, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(rec{N: i, Name: "r"}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// readNs reads the journal and decodes the record numbers it kept.
func readNs(t *testing.T, path string) (ns []int, rejected int) {
	t.Helper()
	recs, rejected, err := Read(path, testKey, testHeader)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, raw := range recs {
		var r rec
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("record %s: %v", raw, err)
		}
		ns = append(ns, r.N)
	}
	return ns, rejected
}

func lines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	ls := bytes.SplitAfter(data, []byte("\n"))
	return ls[:len(ls)-1] // the journal ends in a newline
}

func writeLines(t *testing.T, path string, ls [][]byte) {
	t.Helper()
	if err := os.WriteFile(path, bytes.Join(ls, nil), 0o600); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestRoundTripAndCompaction(t *testing.T) {
	path := writeJournal(t, t.TempDir(), 3)
	if ns, rej := readNs(t, path); !slices.Equal(ns, []int{0, 1, 2}) || rej != 0 {
		t.Fatalf("read %v rejected %d, want [0 1 2] and 0", ns, rej)
	}

	// Compact to records 0 and 2, then append behind them.
	recs, _, err := Read(path, testKey, testHeader)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	w, err := Create(path, testKey, testHeader, []json.RawMessage{recs[0], recs[2]})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := w.Append(rec{N: 7}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append(rec{N: 8}); err == nil {
		t.Fatalf("Append after Close succeeded")
	}
	if ns, rej := readNs(t, path); !slices.Equal(ns, []int{0, 2, 7}) || rej != 0 {
		t.Fatalf("after compaction read %v rejected %d, want [0 2 7] and 0", ns, rej)
	}
	if n := len(lines(t, path)); n != 4 {
		t.Fatalf("compacted journal has %d lines, want header + 3", n)
	}
	if m, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".*tmp*")); len(m) != 0 {
		t.Fatalf("temp files left behind: %v", m)
	}
}

// TestConcurrentAppends: appends from many goroutines serialize into
// whole, verifiable lines with consecutive sequence numbers.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	w, err := Create(path, testKey, testHeader, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := w.Append(rec{N: i}); err != nil {
				t.Errorf("Append %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ns, rej := readNs(t, path)
	seen := map[int]bool{}
	for _, n := range ns {
		seen[n] = true
	}
	if len(ns) != n || len(seen) != n || rej != 0 {
		t.Fatalf("read %v rejected %d, want %d distinct records and 0", ns, rej, n)
	}
}

// TestTamperedRecordRejected: one changed byte inside a record fails
// its MAC; the record is skipped and counted, its neighbours survive.
func TestTamperedRecordRejected(t *testing.T) {
	path := writeJournal(t, t.TempDir(), 3)
	ls := lines(t, path)
	ls[2] = bytes.Replace(ls[2], []byte(`"n":1`), []byte(`"n":9`), 1)
	writeLines(t, path, ls)
	if ns, rej := readNs(t, path); !slices.Equal(ns, []int{0, 2}) || rej != 1 {
		t.Fatalf("read %v rejected %d, want [0 2] and 1", ns, rej)
	}
}

// TestTornTail: a crash mid-append leaves half a line; it is counted,
// and compacting drops it so the next append lands on a line of its
// own.
func TestTornTail(t *testing.T) {
	path := writeJournal(t, t.TempDir(), 2)
	ls := lines(t, path)
	ls[2] = ls[2][:len(ls[2])/2]
	writeLines(t, path, ls)
	recs, rej, err := Read(path, testKey, testHeader)
	if err != nil || len(recs) != 1 || rej != 1 {
		t.Fatalf("torn read: %d records, %d rejected, err %v; want 1, 1, nil", len(recs), rej, err)
	}
	w, err := Create(path, testKey, testHeader, recs)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := w.Append(rec{N: 5}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Close()
	if ns, rej := readNs(t, path); !slices.Equal(ns, []int{0, 5}) || rej != 0 {
		t.Fatalf("after compaction read %v rejected %d, want [0 5] and 0", ns, rej)
	}
}

// TestReorderedLinesRejected: every line's MAC binds its position, so
// two swapped records both fail, as does a line copied elsewhere.
func TestReorderedLinesRejected(t *testing.T) {
	path := writeJournal(t, t.TempDir(), 3)
	ls := lines(t, path)
	ls[1], ls[2] = ls[2], ls[1]
	ls = append(ls, ls[3])
	writeLines(t, path, ls)
	if ns, rej := readNs(t, path); !slices.Equal(ns, []int{2}) || rej != 3 {
		t.Fatalf("read %v rejected %d, want [2] and 3", ns, rej)
	}
}

func TestHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, 2)
	tampered := filepath.Join(dir, "tampered.journal")
	ls := lines(t, path)
	ls[0] = bytes.Replace(ls[0], []byte(`"version":1`), []byte(`"version":2`), 1)
	writeLines(t, tampered, ls)
	foreign := filepath.Join(dir, "foreign.journal")
	writeLines(t, foreign, [][]byte{[]byte("{\"some\":\"other format\"}\n"), []byte("x\n")})

	cases := []struct {
		name, path string
		key        []byte
		header     any
		lines      int
	}{
		{"other header", path, testKey, map[string]any{"format": "test", "version": 2}, 3},
		{"other key", path, []byte("other-key"), testHeader, 3},
		{"tampered header", tampered, testKey, map[string]any{"format": "test", "version": 2}, 3},
		{"foreign file", foreign, testKey, testHeader, 2},
	}
	for _, tc := range cases {
		recs, rej, err := Read(tc.path, tc.key, tc.header)
		var mm *MismatchError
		if !errors.As(err, &mm) || mm.Path != tc.path {
			t.Errorf("%s: err = %v, want *MismatchError for %s", tc.name, err, tc.path)
		}
		if recs != nil || rej != tc.lines {
			t.Errorf("%s: %d records, %d rejected; want none and %d", tc.name, len(recs), rej, tc.lines)
		}
	}
}

func TestMissingAndEmptyFileReadEmpty(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.journal")
	if err := os.WriteFile(empty, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.journal"), empty} {
		recs, rej, err := Read(path, testKey, testHeader)
		if recs != nil || rej != 0 || err != nil {
			t.Errorf("%s: %d records, %d rejected, err %v; want an empty journal", path, len(recs), rej, err)
		}
	}
}

// TestDirectoryPathIsAnError: a read failure other than a missing file
// is returned, never mistaken for an empty journal.
func TestDirectoryPathIsAnError(t *testing.T) {
	dir := t.TempDir()
	_, _, err := Read(dir, testKey, testHeader)
	if err == nil || errors.As(err, new(*MismatchError)) {
		t.Fatalf("Read(directory) err = %v, want an I/O error", err)
	}
	if _, err := Create(dir, testKey, testHeader, nil); err == nil {
		t.Fatalf("Create over a directory succeeded")
	}
}

// FuzzRead feeds arbitrary bytes as a journal file. Read must not
// panic, must fail only with *MismatchError (a regular file always
// reads), and every record it returns must verify again, unchanged,
// when re-encoded at its compacted position.
func FuzzRead(f *testing.F) {
	dir := f.TempDir()
	valid, err := os.ReadFile(writeJournal(f, dir, 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add(bytes.Replace(valid, []byte(`"n":2`), []byte(`"n":3`), 1))
	f.Add(append(append([]byte{}, valid...), "\n\n{}\n"...))
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte(`{"seq":0,"rec":null,"mac":""}`))
	path := filepath.Join(dir, "fuzz.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		recs, rej, err := Read(path, testKey, testHeader)
		if err != nil {
			if !errors.As(err, new(*MismatchError)) {
				t.Fatalf("Read: unexpected error %v", err)
			}
			return
		}
		if len(recs)+rej > bytes.Count(data, []byte("\n"))+1 {
			t.Fatalf("%d records + %d rejected exceed the line count", len(recs), rej)
		}
		for i, rec := range recs {
			got, ok := verify(testKey, i+1, appendLine(nil, testKey, i+1, rec))
			if !ok || !json.Valid(got) || !bytes.Equal(got, rec) {
				t.Fatalf("record %d %q does not re-verify (got %q)", i, rec, got)
			}
		}
	})
}
