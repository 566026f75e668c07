package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// reportDigests holds the SHA-256 of every registered experiment's
// default-effort report. Most of them read the cache hierarchy through
// Prime+Probe or a timed access, and the urg family also trains the
// indirect-memory prefetcher on every demand access, so a change to
// replacement order, prefetch-buffer order or the IMP's stream table
// shows up here as a changed report.
var reportDigests = map[string]string{
	"blind":          "e3b9befd2f2e8962babc294a5e86a2f3af1c8225eb64c484fa67a8de0411df4c",
	"capacity":       "41965884632ccd86d854a5f098829508291f71107db49358aa601bf3021b64cf",
	"continuous":     "fb49e4ae8be4665989357a5fec34dc1e83cb281f180449b0dd6ca427860ef788",
	"covert":         "8354fda32db5fc5ccee9274f1bf4d98820e9d5c537d83a52979087348865ea59",
	"defenses":       "b6797b1af887057c3eb4425076f328ce149794aff159478ac7c21d258bb4e51f",
	"fig4":           "c4918784ac9a6067eb0e4e8acd964ebe1ef676034291f4a977ac0d55bddbc5b8",
	"fig5":           "a620cfd5c318a60459bf8978ce33e1253cbea0e496505d63749d1f4f96852cd6",
	"fig6":           "7b052321d53bf3aa0320254990ef5fed9a9d950a139bfdd9889db60e0480d3cf",
	"fig7":           "630d78956f1e20ccc5e797ebcd8717d871eeeb610648ad87b5abc92e0bfb625d",
	"keyrec":         "6ce6a56a5d38eafbf55e731e02a150d900305b24d67b7b9c0600189bf18dc307",
	"mld":            "9f11e18e9a1a72cb45a78c6822bee5ffcc83eb50d488a27bed69209b5f3b8eac",
	"prefetchbuffer": "6cc294a8ae8c0e3e80ff4d96d1c048dbc51b98f6b1885b0016cbe34f72fdc1f2",
	"reuse":          "5eff0a48c2f22817bf688dd1fd4b60fa087e794405e5ff6d54041b4ab6fa1935",
	"table1":         "eef49cae01b722021733fc155ba6c9902f0beb526a7cdb95008c6590013faf88",
	"table2":         "02d0d11f96088fda1df48295b44b46b8202b69fbc8e5946de5e6a9331f970756",
	"urg":            "7d34b113e6a9975cf677f9d2117150a11d1e5aa669b1b3ba76fc40bffbe2c64d",
	"urg2level":      "b6b670a6c390ee48d671645755b5f68e1182e1389a97a7d66a6ba782ebc81b70",
	"witness":        "c4804f8644e48f0fd57433cbf47618222102262d4a4cfa9a47f93d5a0af00c7b",
}

// TestReportDigests pins, by SHA-256, the default-effort report of every
// registered experiment, and requires a pin for each one registered.
func TestReportDigests(t *testing.T) {
	names := Names()
	if len(names) != len(reportDigests) {
		t.Errorf("%d experiments registered, %d digests pinned", len(names), len(reportDigests))
	}
	for _, name := range names {
		want, ok := reportDigests[name]
		if !ok {
			t.Errorf("%s has no pinned report digest", name)
			continue
		}
		e, _ := Get(name)
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
