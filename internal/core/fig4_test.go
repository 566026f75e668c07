package core

import (
	"strings"
	"testing"
)

// fig4Golden is the exact Figure 4 report: the store-queue action
// sequence of each silent-store case (A: silent dequeue, B: value
// mismatch, C: no free load port, D: late SS-Load). The timelines are
// the artifact, so any change to an event's cycle, order or rendering is
// a regression, not a cosmetic diff.
var fig4Golden = strings.Join([]string{
	"Figure 4 — silent-store action sequences",
	"",
	"Case A: store value == loaded (silent store)",
	"  cycle     4  #5    pc=4    addr-resolved        addr=0x800",
	"  cycle     4  #5    pc=4    ssload-issue         returns at 6",
	"  cycle     6  #5    pc=4    ssload-return        match (silent candidate)",
	"  cycle    25  #5    pc=4    reaches-sq-head     ",
	"  cycle    25  #5    pc=4    sq-dequeue-silent   ",
	"",
	"Case B: store value != loaded (non-silent store)",
	"  cycle     4  #5    pc=4    addr-resolved        addr=0x800",
	"  cycle     4  #5    pc=4    ssload-issue         returns at 6",
	"  cycle     6  #5    pc=4    ssload-return        mismatch (read 0x7, storing 0x8)",
	"  cycle    25  #5    pc=4    reaches-sq-head     ",
	"  cycle    26  #5    pc=4    response-from-mem   ",
	"  cycle    26  #5    pc=4    store-sent-to-cache ",
	"  cycle    26  #5    pc=4    sq-dequeue          ",
	"",
	"Case C: no free load port (non-silent store)",
	"  cycle     4  #3    pc=2    addr-resolved        addr=0x800",
	"  cycle     4  #3    pc=2    ssload-no-port      ",
	"  cycle     5  #3    pc=2    reaches-sq-head     ",
	"  cycle     6  #3    pc=2    response-from-mem   ",
	"  cycle     6  #3    pc=2    store-sent-to-cache ",
	"  cycle     6  #3    pc=2    sq-dequeue          ",
	"",
	"Case D: SS-Load returns late (non-silent store)",
	"  cycle     4  #3    pc=2    addr-resolved        addr=0x800",
	"  cycle     4  #3    pc=2    ssload-issue         returns at 104",
	"  cycle     5  #3    pc=2    reaches-sq-head     ",
	"  cycle     5  #3    pc=2    ssload-late         ",
	"  cycle     6  #3    pc=2    response-from-mem   ",
	"  cycle     6  #3    pc=2    store-sent-to-cache ",
	"  cycle     6  #3    pc=2    sq-dequeue          ",
	"",
}, "\n")

func TestFig4Golden(t *testing.T) {
	e, ok := Get("fig4")
	if !ok {
		t.Fatal("fig4 not registered")
	}
	res, err := e.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != fig4Golden {
		t.Errorf("Figure 4 report changed:\n--- got ---\n%s\n--- want ---\n%s", res.Text, fig4Golden)
	}
}
