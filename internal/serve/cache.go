package serve

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Store is the content-addressed result cache. Entries live at
// dir/<key[:2]>/<key>.entry as a one-line JSON identity header followed
// by the result body. The header carries an HMAC-SHA256 over (key, code
// version, body) under a per-store secret key, so an entry whose body
// or header was modified on disk — or that was written by a different
// code version — fails authentication on read and is rejected and
// deleted, forcing a recompute. The job journal (internal/journal under
// the same secret) applies the same discipline per record.
type Store struct {
	dir    string
	secret []byte
}

// entryHeader is the identity header, one JSON line ahead of the body.
type entryHeader struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Code    string `json:"code"`
	MAC     string `json:"mac"`
}

// storeVersion is the on-disk entry layout version.
const storeVersion = 1

// secretFile holds the store's MAC key, created on first open.
const secretFile = "secret.key"

// Outcome classifies one Get.
type Outcome int

const (
	// Miss: no entry on disk.
	Miss Outcome = iota
	// Hit: entry present and authenticated.
	Hit
	// Rejected: entry present but failed authentication (tampered body,
	// tampered header, or version skew); it has been deleted.
	Rejected
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Rejected:
		return "rejected"
	default:
		return "miss"
	}
}

// OpenStore opens (creating if needed) a store rooted at dir and loads
// or generates its MAC secret.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open store: %w", err)
	}
	path := filepath.Join(dir, secretFile)
	secret, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		secret = make([]byte, 32)
		if _, err := rand.Read(secret); err != nil {
			return nil, fmt.Errorf("serve: generate store secret: %w", err)
		}
		if err := os.WriteFile(path, secret, 0o600); err != nil {
			return nil, fmt.Errorf("serve: write store secret: %w", err)
		}
	} else if err != nil {
		return nil, fmt.Errorf("serve: read store secret: %w", err)
	}
	if len(secret) < 16 {
		return nil, fmt.Errorf("serve: store secret %s too short (%d bytes)", path, len(secret))
	}
	return &Store{dir: dir, secret: secret}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// EntryPath returns where the entry for a key lives (whether or not it
// exists yet).
func (s *Store) EntryPath(key string) string {
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(s.dir, prefix, key+".entry")
}

// mac computes the identity MAC binding a body to its key and code
// version under the store secret.
func (s *Store) mac(key string, body []byte) string {
	h := hmac.New(sha256.New, s.secret)
	h.Write([]byte(key))
	h.Write([]byte{'\n'})
	h.Write([]byte(CodeVersion))
	h.Write([]byte{'\n'})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// Put stores a result body under its key, atomically (write to a temp
// file in the same directory, then rename).
func (s *Store) Put(key string, body []byte) error {
	hdr, err := json.Marshal(entryHeader{
		Version: storeVersion,
		Key:     key,
		Code:    CodeVersion,
		MAC:     s.mac(key, body),
	})
	if err != nil {
		return fmt.Errorf("serve: marshal entry header: %w", err)
	}
	path := s.EntryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(append(hdr, '\n'), body...)); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: store put: %w", err)
	}
	return nil
}

// Get looks up a key. On Hit the returned body is the exact bytes Put
// stored. On Rejected the entry failed authentication and has been
// deleted so the caller recomputes; the error explains why (it is
// diagnostic, not fatal). On Miss both returns are nil.
func (s *Store) Get(key string) ([]byte, Outcome, error) {
	path := s.EntryPath(key)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, Miss, nil
	}
	if err != nil {
		return nil, Miss, fmt.Errorf("serve: store get: %w", err)
	}
	reject := func(why string) ([]byte, Outcome, error) {
		os.Remove(path)
		return nil, Rejected, fmt.Errorf("serve: cache entry %s rejected: %s", key, why)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return reject("no identity header")
	}
	var hdr entryHeader
	if err := json.Unmarshal(raw[:nl], &hdr); err != nil {
		return reject("unparseable identity header")
	}
	body := raw[nl+1:]
	switch {
	case hdr.Version != storeVersion:
		return reject(fmt.Sprintf("entry version %d (want %d)", hdr.Version, storeVersion))
	case hdr.Key != key:
		return reject("identity header names a different key")
	case hdr.Code != CodeVersion:
		return reject(fmt.Sprintf("code version %q (running %q)", hdr.Code, CodeVersion))
	case !hmac.Equal([]byte(hdr.MAC), []byte(s.mac(key, body))):
		return reject("identity MAC mismatch")
	}
	return body, Hit, nil
}
