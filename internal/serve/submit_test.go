package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestScanJobOversizedMachineRefused: a scan job whose machine spec asks
// for an oversized ROB is a 400 naming the bound, before any job exists
// or any machine is sized.
func TestScanJobOversizedMachineRefused(t *testing.T) {
	base, srv := startServer(t)
	body, _ := json.Marshal(JobSpec{Kind: KindScan, Source: "halt\n", Machine: "rob=100000"})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if !strings.Contains(e.Error, `machine feature "rob": out of range (max 1024) "100000"`) {
		t.Fatalf("error %q does not name the rob bound", e.Error)
	}
	if n := srv.stats.Submitted.Load(); n != 0 {
		t.Fatalf("serve.submitted = %d after a refused body, want 0", n)
	}
}

// submitBodies are FuzzSubmit's seeds and TestParseSubmit's table: one
// accepted spec per kind, and refused bodies of each shape.
var submitBodies = []struct {
	body string
	ok   bool
}{
	{`{"kind":"check","programs":4,"masks":1,"seed":7}`, true},
	{`{"kind":"check"}`, true},
	{`{"kind":"scan","scenario":"stlf"}`, true},
	{`{"kind":"scan","source":"halt\n","machine":" vp:8 , silentstores ","secrets":["0x100:8:k"]}`, true},
	{`{"kind":"bench","experiment":"fig5","samples":3}`, true},
	{`{"kind":"fault","trials":2,"sites":["prf","lsq"]}`, true},
	{`{"kind":"trace","scenario":"sweep","format":"report","seed":3}`, true},
	{`{"kind":"contract","kernels":["bsaes-sbox","chacha20-qr"],"masks":4}`, true},
	{`{"kind":"check","timeout_ms":5}`, true},
	{`{"kind":"juggle"}`, false},
	{`{"kind":"scan"}`, false},
	{`{"kind":"scan","source":"halt\n","machine":"rob=100000"}`, false},
	{`{"kind":"scan","source":"halt\n","machine":"sq=1025"}`, false},
	{`{"kind":"scan","source":"halt\n","secrets":["0:0xffffffffffff"]}`, false},
	{`{"kind":"check","bogus_field":1}`, false},
	{`{"kind":"check","seed":"x"}`, false},
	{`not json`, false},
	{``, false},
}

// checkSubmit is FuzzSubmit's property for one body: a refusal is a
// *submitError; an accepted spec's canonical form is a fixed point of
// Key, and submitting the canonical form as a body yields the same key.
// It reports whether the body was accepted.
func checkSubmit(t *testing.T, body []byte) bool {
	t.Helper()
	_, key, canon, err := parseSubmit(bytes.NewReader(body))
	if err != nil {
		var se *submitError
		if !errors.As(err, &se) {
			t.Fatalf("body %q: untyped refusal %T: %v", body, err, err)
		}
		return false
	}
	key2, canon2, err := Key(canon)
	if err != nil {
		t.Fatalf("body %q: canonical form %+v refused: %v", body, canon, err)
	}
	if key2 != key || !reflect.DeepEqual(canon2, canon) {
		t.Fatalf("body %q: canonical form is not a fixed point:\n%+v (%s)\n%+v (%s)", body, canon, key, canon2, key2)
	}
	again, err := json.Marshal(canon)
	if err != nil {
		t.Fatalf("marshal canonical form: %v", err)
	}
	if _, key3, _, err := parseSubmit(bytes.NewReader(again)); err != nil || key3 != key {
		t.Fatalf("body %q: resubmitting the canonical form %s gave key %s, %v; want %s", body, again, key3, err, key)
	}
	return true
}

func TestParseSubmit(t *testing.T) {
	for _, c := range submitBodies {
		if got := checkSubmit(t, []byte(c.body)); got != c.ok {
			t.Errorf("body %q accepted=%v, want %v", c.body, got, c.ok)
		}
	}
}

// FuzzSubmit drives the POST /v1/jobs body through decode, validation,
// canonicalization and keying, without executing the job: any body is
// either a typed refusal (the 400 path) or an accepted spec whose
// canonical form is a fixed point with the same key — the property that
// keeps served cache hits byte-identical.
func FuzzSubmit(f *testing.F) {
	for _, c := range submitBodies {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSubmit(t, body)
	})
}
