package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestRegistrySnapshotDelta(t *testing.T) {
	r := NewRegistry()
	var a uint64
	var c int64
	occupancy := uint64(0)
	r.CounterUint64("a", &a)
	r.CounterInt64("cycles", &c)
	r.Gauge("occ", func() uint64 { return occupancy })

	a, c, occupancy = 3, 10, 2
	before := r.Snapshot()
	a, c, occupancy = 8, 25, 7
	after := r.Snapshot()
	d := after.Delta(before)

	if got := d.Get("a"); got != 5 {
		t.Errorf("counter delta a = %d, want 5", got)
	}
	if got := d.GetInt64("cycles"); got != 15 {
		t.Errorf("counter delta cycles = %d, want 15", got)
	}
	if got := d.Get("occ"); got != 7 {
		t.Errorf("gauge delta occ = %d, want current value 7", got)
	}
	if got := d.Get("missing"); got != 0 {
		t.Errorf("missing metric = %d, want 0", got)
	}
	// Delta against the zero snapshot counts from zero.
	z := after.Delta(Snapshot{})
	if got := z.Get("a"); got != 8 {
		t.Errorf("delta vs zero snapshot = %d, want 8", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	var a uint64
	r.CounterUint64("dup", &a)
	r.CounterUint64("dup", &a)
}

func TestSnapshotIntoReusesBuffer(t *testing.T) {
	r := NewRegistry()
	var a, b uint64
	r.CounterUint64("a", &a)
	r.CounterUint64("b", &b)
	var s, prev, d Snapshot
	r.SnapshotInto(&prev)
	r.SnapshotInto(&s)
	s.DeltaInto(prev, &d)
	allocs := testing.AllocsPerRun(100, func() {
		r.SnapshotInto(&s)
		s.DeltaInto(prev, &d)
	})
	if allocs != 0 {
		t.Errorf("warm SnapshotInto+DeltaInto allocates %v per run, want 0", allocs)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{1, 4, 16})
	for _, v := range []int64{1, 2, 3, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if got := s.Get("lat.count"); got != 5 {
		t.Errorf("lat.count = %d, want 5", got)
	}
	if got := s.Get("lat.sum"); got != 111 {
		t.Errorf("lat.sum = %d, want 111", got)
	}
	if got := s.Get("lat.le.1"); got != 1 {
		t.Errorf("lat.le.1 = %d, want 1", got)
	}
	if got := s.Get("lat.le.4"); got != 2 {
		t.Errorf("lat.le.4 = %d, want 2", got)
	}
	if got := s.Get("lat.le.16"); got != 1 {
		t.Errorf("lat.le.16 = %d, want 1", got)
	}
	if got := s.Get("lat.le.inf"); got != 1 {
		t.Errorf("lat.le.inf = %d, want 1", got)
	}
}

func sampleTrace() *Trace {
	tr := NewTrace()
	tr.Emit(Event{Cycle: 0, Kind: KindRunStart, Track: TrackRetire})
	tr.Emit(Event{Cycle: 1, Kind: KindFetch, Track: TrackFetch, Seq: 1, PC: 0})
	tr.Emit(Event{Cycle: 2, Kind: KindIssue, Track: TrackIssue, Seq: 1, PC: 0, Arg: 3})
	tr.Emit(Event{Cycle: 4, Kind: KindCacheMiss, Track: TrackL1, Addr: 0x40})
	tr.Emit(Event{Cycle: 6, Kind: KindRetire, Track: TrackRetire, Seq: 1, PC: 0, Arg: 5})
	tr.Emit(Event{Cycle: 7, Kind: KindRunEnd, Track: TrackRetire, Arg: 7})
	return tr
}

func TestTraceWindowShiftMerge(t *testing.T) {
	tr := sampleTrace()
	win := tr.Window(2, 6)
	if win.Len() != 2 {
		t.Fatalf("window [2,6) has %d events, want 2", win.Len())
	}
	if win.Events[0].Kind != KindIssue || win.Events[1].Kind != KindCacheMiss {
		t.Errorf("window contents wrong: %+v", win.Events)
	}
	open := tr.Window(2, -1)
	if open.Len() != 4 {
		t.Errorf("open window has %d events, want 4", open.Len())
	}

	b := sampleTrace()
	b.ShiftCycles(100)
	if b.Events[0].Cycle != 100 {
		t.Errorf("shift: first cycle = %d, want 100", b.Events[0].Cycle)
	}
	m := Merge(tr, nil, b)
	if m.Len() != tr.Len()*2 {
		t.Errorf("merge length = %d, want %d", m.Len(), tr.Len()*2)
	}
	if got := m.MaxCycle(TrackRetire); got != 107 {
		t.Errorf("merged MaxCycle(retire) = %d, want 107", got)
	}
}

func TestTraceJSONLDeterministic(t *testing.T) {
	tr := sampleTrace()
	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("repeated JSONL export differs")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != tr.Len() {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), tr.Len())
	}
	for _, ln := range lines {
		var obj map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
	}
}

func TestTraceChromeValid(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	// Metadata first, then one entry per trace event.
	meta, slices, instants := 0, 0, 0
	var retireMax int64 = -1
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if e.Dur < 1 {
				t.Errorf("X slice %q has dur %d, want >= 1", e.Name, e.Dur)
			}
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
		if e.Ph != "M" && e.Tid == int(TrackRetire) && e.Ts > retireMax {
			retireMax = e.Ts
		}
	}
	if meta < 2 {
		t.Errorf("chrome export has %d metadata records, want >= 2", meta)
	}
	if slices != 1 {
		t.Errorf("chrome export has %d X slices, want 1 (the issue event)", slices)
	}
	if instants != tr.Len()-1 {
		t.Errorf("chrome export has %d instants, want %d", instants, tr.Len()-1)
	}
	if retireMax != 7 {
		t.Errorf("retire track max ts = %d, want 7 (the run-end marker)", retireMax)
	}
}

func TestTraceReportRenders(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace report", "retire", "cycle attribution by PC"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Empty trace still renders.
	var empty bytes.Buffer
	if err := NewTrace().WriteReport(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no events") {
		t.Errorf("empty report = %q", empty.String())
	}
}

func TestKindTrackStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("Kind %d has no name", k)
		}
	}
	for tr := Track(0); tr < NumTracks; tr++ {
		if tr.String() == "" || strings.HasPrefix(tr.String(), "track(") {
			t.Errorf("Track %d has no name", tr)
		}
	}
}

func TestTracePipeview(t *testing.T) {
	tr := NewTrace()
	for _, e := range []Event{
		{Cycle: 0, Kind: KindRename, Seq: 1, PC: 0},
		{Cycle: 1, Kind: KindRename, Seq: 2, PC: 1},
		{Cycle: 1, Kind: KindIssue, Seq: 1, PC: 0, Arg: 2},
		{Cycle: 2, Kind: KindUopt, Seq: 2, PC: 1, Detail: "ss-load"},
		{Cycle: 2, Kind: KindUopt, Seq: 2, PC: 1, Detail: "reuse"},
		{Cycle: 2, Kind: KindCacheHit, PC: -1, Addr: 0x40},
		{Cycle: 3, Kind: KindRetire, Seq: 1, PC: 0},
		{Cycle: 4, Kind: KindSSLoadReturn, Seq: 2, PC: 1, Detail: "match"},
		{Cycle: 5, Kind: KindSQHead, Seq: 2, PC: 1},
		{Cycle: 5, Kind: KindRetire, Seq: 2, PC: 1},
	} {
		tr.Emit(e)
	}
	label := func(pc int64) string { return fmt.Sprintf("op%d", pc) }
	const legend = "D dispatch  I issue  s ss-load  r ss-return  q sq-dequeue  x squash  R retire\n\n"
	for _, c := range []struct {
		cols int
		want string
	}{
		{0, "pipeview: cycles 0..5 (1 column = 1 cycle(s))\n" + legend +
			"#1    pc=0    |DI.R  | op0\n" +
			"#2    pc=1    | Ds.rR| op1\n"},
		// Two cycles per column: the later marker in a column wins,
		// except that retire always shows.
		{3, "pipeview: cycles 0..5 (1 column = 2 cycle(s))\n" + legend +
			"#1    pc=0    |IR | op0\n" +
			"#2    pc=1    |DsR| op1\n"},
	} {
		var buf bytes.Buffer
		if err := tr.WritePipeview(&buf, c.cols, label); err != nil {
			t.Fatal(err)
		}
		if buf.String() != c.want {
			t.Errorf("maxCols=%d:\n%s\nwant:\n%s", c.cols, buf.String(), c.want)
		}
	}
	var empty bytes.Buffer
	if err := NewTrace().WritePipeview(&empty, 0, label); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "pipeview: no events\n" {
		t.Errorf("empty pipeview = %q", empty.String())
	}
}
