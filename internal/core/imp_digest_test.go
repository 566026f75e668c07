package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestIMPReportDigests pins, by SHA-256, the default-effort reports of
// the experiments that decode the indirect-memory prefetcher through
// Prime+Probe. Every demand access of theirs trains the IMP's stream
// table, so any change to its training order, locks or prefetches shows
// up here as a changed report.
func TestIMPReportDigests(t *testing.T) {
	for name, want := range map[string]string{
		"urg":            "7d34b113e6a9975cf677f9d2117150a11d1e5aa669b1b3ba76fc40bffbe2c64d",
		"urg2level":      "b6b670a6c390ee48d671645755b5f68e1182e1389a97a7d66a6ba782ebc81b70",
		"prefetchbuffer": "6cc294a8ae8c0e3e80ff4d96d1c048dbc51b98f6b1885b0016cbe34f72fdc1f2",
	} {
		e, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		res, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(res.Text))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s report digest %s, want %s:\n%s", name, got, want, res.Text)
		}
	}
}
