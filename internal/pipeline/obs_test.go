package pipeline

import (
	"testing"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/uopt"
)

// obsProg exercises every event family: ALU work, a store-load pair
// (forwarding), a cache-missing load, and a loop (branches).
const obsProg = `
	addi x1, x0, 0x100
	addi x2, x0, 3
	sd   x2, 0(x1)
	ld   x3, 0(x1)
	addi x4, x0, 4
loop:
	add  x5, x5, x4
	addi x4, x4, -1
	bne  x4, x0, loop
	ld   x6, 64(x1)
	halt
`

func TestProbeEventStream(t *testing.T) {
	tr := obs.NewTrace()
	cfg := DefaultConfig()
	cfg.Probe = tr
	m := newTestMachine(t, cfg)
	res := run(t, m, obsProg)

	if tr.Len() == 0 {
		t.Fatal("probe saw no events")
	}
	// The acceptance property: on a fresh machine, the retire track's
	// maximum cycle stamp (the run-end marker) equals Result.Cycles.
	if got := tr.MaxCycle(obs.TrackRetire); got != res.Cycles {
		t.Errorf("retire-track max cycle = %d, want Result.Cycles = %d", got, res.Cycles)
	}
	if n := tr.CountKind(obs.KindRetire); uint64(n) != res.Retired {
		t.Errorf("retire events = %d, want %d", n, res.Retired)
	}
	if n := tr.CountKind(obs.KindRunStart); n != 1 {
		t.Errorf("run-start events = %d, want 1", n)
	}
	if n := tr.CountKind(obs.KindRunEnd); n != 1 {
		t.Errorf("run-end events = %d, want 1", n)
	}
	if n := tr.CountKind(obs.KindForward); n == 0 {
		t.Error("no forwarding event for the store-load pair")
	}
	if n := tr.CountKind(obs.KindCacheMiss); n == 0 {
		t.Error("no cache-miss event for the cold load")
	}
	stats := m.Stats()
	if n := tr.CountKind(obs.KindIssue); n == 0 {
		t.Error("no issue events")
	} else {
		for _, e := range tr.Events {
			if e.Kind == obs.KindIssue && e.Arg < 1 {
				t.Errorf("issue event with latency %d", e.Arg)
				break
			}
		}
	}
	if n := tr.CountKind(obs.KindFetch); uint64(n) != stats.Fetched {
		t.Errorf("fetch events = %d, want Fetched = %d", n, stats.Fetched)
	}
}

func TestProbeUoptActivations(t *testing.T) {
	tr := obs.NewTrace()
	cfg := DefaultConfig()
	cfg.Probe = tr
	cfg.SilentStores = &SilentStoreConfig{}
	cfg.Reuse = uopt.NewReuseBuffer(uopt.SchemeSv, 64)
	m := newTestMachine(t, cfg)
	run(t, m, `
		addi x1, x0, 0x200
		addi x2, x0, 9
		sd   x2, 0(x1)
		sd   x2, 0(x1)
		addi x5, x0, 2
	loop:
		add  x3, x2, x2
		addi x5, x5, -1
		bne  x5, x0, loop
		halt
	`)
	want := map[string]bool{"ss-load": false, "silent-store": false, "reuse": false}
	for _, e := range tr.Events {
		if e.Kind == obs.KindUopt {
			if _, ok := want[e.Detail]; ok {
				want[e.Detail] = true
			}
		}
	}
	stats := m.Stats()
	if stats.SilentStores > 0 && !want["silent-store"] {
		t.Errorf("SilentStores = %d but no silent-store uopt event", stats.SilentStores)
	}
	if stats.SSLoadsIssued > 0 && !want["ss-load"] {
		t.Errorf("SSLoadsIssued = %d but no ss-load uopt event", stats.SSLoadsIssued)
	}
	if stats.ReuseHits > 0 && !want["reuse"] {
		t.Errorf("ReuseHits = %d but no reuse uopt event", stats.ReuseHits)
	}
	if stats.ReuseHits == 0 {
		t.Error("expected a reuse hit from the repeated add")
	}
}

func TestMetricsRegistryMatchesStats(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	before := m.Metrics().Snapshot()
	res := run(t, m, obsProg)
	d := m.Metrics().Snapshot().Delta(before)
	if got := d.GetInt64("pipeline.cycles"); got != res.Cycles {
		t.Errorf("pipeline.cycles delta = %d, want %d", got, res.Cycles)
	}
	if got := d.Get("pipeline.retired"); got != res.Retired {
		t.Errorf("pipeline.retired delta = %d, want %d", got, res.Retired)
	}
	stats := m.Stats()
	if got := d.Get("pipeline.loads_forwarded"); got != stats.LoadsForwarded {
		t.Errorf("pipeline.loads_forwarded = %d, want %d", got, stats.LoadsForwarded)
	}
	if got := d.Get("l1.misses"); got == 0 {
		t.Error("hierarchy metrics not registered: l1.misses delta is 0")
	}
}

// TestNilProbeNoAllocations pins the zero-cost-when-disabled property:
// with no probe attached, the emission helpers and the Run bookkeeping
// allocate nothing on the hot path.
func TestNilProbeNoAllocations(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	u := &uop{seq: 1, pc: 2}
	if allocs := testing.AllocsPerRun(200, func() {
		m.emit(obs.KindIssue, obs.TrackIssue, u, 3, "")
	}); allocs != 0 {
		t.Errorf("nil-probe emit allocates %v per run, want 0", allocs)
	}

	c := cache.MustNew(cache.Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64, HitLatency: 1})
	c.Fill(0x40, false)
	if allocs := testing.AllocsPerRun(200, func() {
		c.Lookup(0x40)
	}); allocs != 0 {
		t.Errorf("nil-probe cache Lookup allocates %v per run, want 0", allocs)
	}

	// Warm snapshot scratch: once a caller's snapshots hold a Run's
	// counters, the registry snapshot/delta cycle reuses their buffers.
	prog := asm.MustAssemble("addi x1, x0, 1\nhalt")
	reg := m.Metrics()
	var start, end, diff obs.Snapshot
	reg.SnapshotInto(&start)
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	reg.SnapshotInto(&end)
	end.DeltaInto(start, &diff)
	if allocs := testing.AllocsPerRun(10, func() {
		reg.SnapshotInto(&end)
		end.DeltaInto(start, &diff)
	}); allocs != 0 {
		t.Errorf("warm snapshot/delta allocates %v per run, want 0", allocs)
	}
	if got := diff.Get("pipeline.retired"); got != 2 {
		t.Errorf("pipeline.retired delta = %d, want 2", got)
	}
}

// TestProbeDeterministic runs the same program twice on fresh machines
// and requires identical event streams.
func TestProbeDeterministic(t *testing.T) {
	capture := func() *obs.Trace {
		tr := obs.NewTrace()
		cfg := DefaultConfig()
		cfg.Probe = tr
		m, err := New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(asm.MustAssemble(obsProg)); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := capture(), capture()
	if a.Len() != b.Len() {
		t.Fatalf("event counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}
