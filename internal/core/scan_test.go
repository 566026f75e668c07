package core

import (
	"errors"
	"testing"
)

// TestWithScanContextDropsFailedScans: a context whose scan failed never
// comes out of the shared pool again, and one whose scan succeeded may.
func TestWithScanContextDropsFailedScans(t *testing.T) {
	var failed *ScanContext
	boom := errors.New("boom")
	if _, err := WithScanContext(func(sc *ScanContext) (int, error) { failed = sc; return 0, boom }); err != boom {
		t.Fatalf("err %v, want %v", err, boom)
	}
	if pooled(failed, 8) {
		t.Error("a failed scan's context came back out of the pool")
	}
	var ok *ScanContext
	if n, err := WithScanContext(func(sc *ScanContext) (int, error) { ok = sc; return 7, nil }); n != 7 || err != nil {
		t.Fatalf("got %d, %v; want 7, nil", n, err)
	}
	if ok == failed {
		t.Error("a failed scan's context was handed out again")
	}
}

// pooled reports whether sc is among the next n contexts the pool hands
// out, holding each until all n are drawn and then returning them.
func pooled(sc *ScanContext, n int) bool {
	if n == 0 {
		return false
	}
	found, _ := WithScanContext(func(c *ScanContext) (bool, error) { return c == sc || pooled(sc, n-1), nil })
	return found
}
