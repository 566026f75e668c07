package serve

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := testStore(t)
	key := "aa11bb22"
	body := []byte(`{"kind":"scan","pass":true}` + "\n")
	if err := s.Put(key, body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, outcome, err := s.Get(key)
	if err != nil || outcome != Hit {
		t.Fatalf("Get = outcome %v, err %v; want hit", outcome, err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("Get returned %q, want the stored %q", got, body)
	}
	if _, outcome, _ := s.Get("ffee0011"); outcome != Miss {
		t.Fatalf("Get(absent) outcome = %v, want miss", outcome)
	}
}

func TestStoreSecretPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	body := []byte("result-bytes\n")
	if err := s1.Put("cafe01", body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, outcome, err := s2.Get("cafe01")
	if outcome != Hit || !bytes.Equal(got, body) {
		t.Fatalf("reopened Get = %q outcome %v err %v; want hit with original body", got, outcome, err)
	}
}

// tamper rewrites an entry file through fn and returns whether the file
// existed.
func tamper(t *testing.T, s *Store, key string, fn func([]byte) []byte) {
	t.Helper()
	path := s.EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatalf("rewrite entry: %v", err)
	}
}

func TestStoreRejectsTamperedBody(t *testing.T) {
	s := testStore(t)
	key := "0123456789abcdef"
	if err := s.Put(key, []byte(`{"pass":true}`+"\n")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Flip the verdict inside the body; the header (and its MAC) are
	// untouched, so only body authentication can catch this.
	tamper(t, s, key, func(raw []byte) []byte {
		return bytes.Replace(raw, []byte(`"pass":true`), []byte(`"pass":niet`), 1)
	})
	_, outcome, err := s.Get(key)
	if outcome != Rejected || err == nil {
		t.Fatalf("Get(tampered body) = outcome %v err %v; want rejected with diagnostic", outcome, err)
	}
	if _, err := os.Stat(s.EntryPath(key)); !os.IsNotExist(err) {
		t.Fatalf("rejected entry still on disk: %v", err)
	}
	// A recompute can repopulate the slot.
	if err := s.Put(key, []byte(`{"pass":true}`+"\n")); err != nil {
		t.Fatalf("re-Put after rejection: %v", err)
	}
	if _, outcome, _ := s.Get(key); outcome != Hit {
		t.Fatalf("Get after re-Put = %v, want hit", outcome)
	}
}

func TestStoreRejectsTamperedHeader(t *testing.T) {
	s := testStore(t)
	key := "fedcba9876543210"
	body := []byte("authentic-body\n")
	if err := s.Put(key, body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Rewrite the identity header's MAC (body untouched): the entry now
	// claims an identity it cannot prove. Flipping the first hex digit
	// changes the MAC whatever its value.
	tamper(t, s, key, func(raw []byte) []byte {
		nl := bytes.IndexByte(raw, '\n')
		var hdr entryHeader
		if err := json.Unmarshal(raw[:nl], &hdr); err != nil {
			t.Fatalf("parse header: %v", err)
		}
		flipped := "0"
		if hdr.MAC[0] == '0' {
			flipped = "1"
		}
		hdr.MAC = flipped + hdr.MAC[1:]
		out, _ := json.Marshal(hdr)
		return append(append(out, '\n'), raw[nl+1:]...)
	})
	if _, outcome, err := s.Get(key); outcome != Rejected || err == nil {
		t.Fatalf("Get(tampered header) = outcome %v err %v; want rejected", outcome, err)
	}
}

func TestStoreRejectsCodeVersionSkew(t *testing.T) {
	s := testStore(t)
	key := "00ff00ff00ff00ff"
	body := []byte("old-version-body\n")
	if err := s.Put(key, body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Forge an entry from a hypothetical older build: the header names
	// another code version WITH a MAC valid under it (same store
	// secret), isolating the version check from MAC failure.
	tamper(t, s, key, func(raw []byte) []byte {
		oldCode := "pandora-serve-v0"
		// mac() binds the running CodeVersion; recompute by hand under
		// the old one so the version check (not MAC failure) fires.
		hm := hmac.New(sha256.New, s.secret)
		hm.Write([]byte(key))
		hm.Write([]byte{'\n'})
		hm.Write([]byte(oldCode))
		hm.Write([]byte{'\n'})
		hm.Write(body)
		h := entryHeader{
			Version: storeVersion,
			Key:     key,
			Code:    oldCode,
			MAC:     hex.EncodeToString(hm.Sum(nil)),
		}
		out, _ := json.Marshal(h)
		return append(append(out, '\n'), body...)
	})
	_, outcome, err := s.Get(key)
	if outcome != Rejected || err == nil {
		t.Fatalf("Get(version skew) = outcome %v err %v; want rejected", outcome, err)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	// Defaults filled: an empty check spec and the explicit defaults
	// must share a key.
	k1, _, err := Key(JobSpec{Kind: KindCheck})
	if err != nil {
		t.Fatalf("Key(check defaults): %v", err)
	}
	k2, _, err := Key(JobSpec{Kind: KindCheck, Seed: 1, Programs: 512, Masks: 3})
	if err != nil {
		t.Fatalf("Key(check explicit): %v", err)
	}
	if k1 != k2 {
		t.Fatalf("default and explicit check specs hash differently: %s vs %s", k1, k2)
	}

	// Foreign fields zeroed: a scan job's key ignores fault-only fields.
	k3, _, err := Key(JobSpec{Kind: KindScan, Scenario: "stlf"})
	if err != nil {
		t.Fatalf("Key(scan): %v", err)
	}
	k4, _, err := Key(JobSpec{Kind: KindScan, Scenario: "stlf", Trials: 99, Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Key(scan with foreign fields): %v", err)
	}
	if k3 != k4 {
		t.Fatalf("foreign fields leaked into the scan key: %s vs %s", k3, k4)
	}

	// Different work hashes differently.
	k5, _, err := Key(JobSpec{Kind: KindScan, Scenario: "aes"})
	if err != nil {
		t.Fatalf("Key(scan aes): %v", err)
	}
	if k3 == k5 {
		t.Fatalf("distinct scenarios share a key")
	}

	// Invalid specs are refused before hashing.
	if _, _, err := Key(JobSpec{Kind: "juggle"}); err == nil {
		t.Fatalf("Key(unknown kind) succeeded")
	}
	if _, _, err := Key(JobSpec{Kind: KindScan}); err == nil {
		t.Fatalf("Key(scan with neither scenario nor source) succeeded")
	}
	if _, _, err := Key(JobSpec{Kind: KindTrace, Scenario: "stlf", Format: "yaml"}); err == nil {
		t.Fatalf("Key(trace with bogus format) succeeded")
	}
}

// FuzzStoreEntry writes untrusted bytes where a cache entry lives — either
// arbitrary bytes, a genuine entry with one byte replaced, a truncated
// one, or another key's genuine entry — and pins what Get may make of
// them: it never panics; it returns Hit only for a genuine entry of that
// key, with exactly the body Put stored under the same identity header;
// and a Rejected entry is gone from disk afterwards.
func FuzzStoreEntry(f *testing.F) {
	f.Add(uint8(0), []byte(`{"kind":"scan"}`), uint16(0), byte(0), []byte("junk"))
	f.Add(uint8(1), []byte(`{"pass":true}`+"\n"), uint16(40), byte(0x20), []byte{})
	f.Add(uint8(1), []byte(`{"pass":true}`), uint16(3), byte('k'^'K'), []byte{})
	f.Add(uint8(2), []byte("body"), uint16(60), byte(0), []byte{})
	f.Add(uint8(3), []byte("body"), uint16(0), byte(0), []byte{})
	f.Add(uint8(0), []byte{}, uint16(0), byte(0), []byte("\n"))
	s, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatalf("OpenStore: %v", err)
	}
	const key, other = "0123456789abcdef", "fedcba9876543210"
	f.Fuzz(func(t *testing.T, mode uint8, body []byte, off uint16, xor byte, raw []byte) {
		if err := s.Put(key, body); err != nil {
			t.Fatalf("Put: %v", err)
		}
		genuine, err := os.ReadFile(s.EntryPath(key))
		if err != nil {
			t.Fatalf("read genuine entry: %v", err)
		}
		cand := raw
		switch mode % 4 {
		case 1: // one byte replaced
			cand = bytes.Clone(genuine)
			cand[int(off)%len(cand)] ^= xor
		case 2: // truncated
			cand = genuine[:int(off)%(len(genuine)+1)]
		case 3: // another key's genuine entry
			if err := s.Put(other, body); err != nil {
				t.Fatalf("Put(other): %v", err)
			}
			if cand, err = os.ReadFile(s.EntryPath(other)); err != nil {
				t.Fatalf("read other entry: %v", err)
			}
		}
		if err := os.WriteFile(s.EntryPath(key), cand, 0o644); err != nil {
			t.Fatalf("write candidate: %v", err)
		}
		got, outcome, _ := s.Get(key)
		switch outcome {
		case Hit:
			var want, have entryHeader
			json.Unmarshal(genuine[:bytes.IndexByte(genuine, '\n')], &want)
			nl := bytes.IndexByte(cand, '\n')
			if nl < 0 || json.Unmarshal(cand[:nl], &have) != nil || have != want || !bytes.Equal(got, body) {
				t.Fatalf("Hit on a non-genuine entry %q: body %q", cand, got)
			}
		case Rejected:
			if _, err := os.Stat(s.EntryPath(key)); !os.IsNotExist(err) {
				t.Fatalf("rejected entry still on disk: %v", err)
			}
		}
	})
}
