package pipeline

import (
	"testing"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/obs"
)

// ssSetup returns a machine with silent stores enabled, mem[0x800]=7 and
// the line warmed into the cache.
func ssSetup(t *testing.T, cfg Config) (*Machine, *mem.Memory) {
	t.Helper()
	mm := mem.New()
	mm.Write(0x800, 8, 7)
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	h.Access(0x800, 7, false) // warm the line
	m, err := New(cfg, mm, h)
	if err != nil {
		t.Fatal(err)
	}
	return m, mm
}

// caseASrc delays the store's retirement behind a slow divide so the
// SS-Load (issued as soon as the store's address resolves) returns before
// the store can dequeue — the paper's Figure 4 Case A when values match.
const caseASrc = `
	addi x1, x0, 0x800
	addi x2, x0, 7
	addi x9, x0, 1000
	div  x3, x9, x2      # slow older op delays in-order retire
	sd   x2, 0(x1)       # stores 7 over 7
	halt
`

func TestSilentStoreCaseA(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
	m, mm := ssSetup(t, cfg)
	if _, err := m.Run(asm.MustAssemble(caseASrc)); err != nil {
		t.Fatal(err)
	}
	if m.Stats().SilentStores != 1 {
		t.Errorf("SilentStores = %d, want 1 (stats: %+v)", m.Stats().SilentStores, m.Stats())
	}
	if got := mm.Read(0x800, 8); got != 7 {
		t.Errorf("mem = %d", got)
	}
}

func TestSilentStoreCaseBValueMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
	m, mm := ssSetup(t, cfg)
	src := `
		addi x1, x0, 0x800
		addi x2, x0, 8       # differs from memory (7)
		addi x9, x0, 1000
		div  x3, x9, x2
		sd   x2, 0(x1)
		halt
	`
	if _, err := m.Run(asm.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	if m.Stats().SilentStores != 0 {
		t.Errorf("SilentStores = %d, want 0", m.Stats().SilentStores)
	}
	if m.Stats().NonSilentChecks != 1 {
		t.Errorf("NonSilentChecks = %d, want 1", m.Stats().NonSilentChecks)
	}
	if got := mm.Read(0x800, 8); got != 8 {
		t.Errorf("mem = %d, want 8 (store must still perform)", got)
	}
}

// TestSilentStoreCaseCNoPort starves the single load port with demand
// loads; the SS-Load gives up and the store is not a silent-store
// candidate even though the values match.
func TestSilentStoreCaseCNoPort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
	cfg.LoadPorts = 1
	m, _ := ssSetup(t, cfg)
	src := `
		addi x1, x0, 0x800
		addi x2, x0, 7
		sd   x2, 0(x1)       # stores 7 over 7 — but SS-Load can't issue
		ld   x10, 64(x1)
		ld   x11, 128(x1)
		ld   x12, 192(x1)
		ld   x13, 256(x1)
		ld   x14, 320(x1)
		ld   x15, 384(x1)
		ld   x16, 448(x1)
		ld   x17, 512(x1)
		halt
	`
	if _, err := m.Run(asm.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	if m.Stats().SSLoadNoPort == 0 {
		t.Skipf("load port free at resolve cycle; stats: %+v", m.Stats())
	}
	if m.Stats().SilentStores != 0 {
		t.Errorf("store marked silent despite Case C: %+v", m.Stats())
	}
}

// TestSilentStoreCaseDLateReturn makes the SS-Load miss (cold line) so it
// cannot return before the store is ready to perform.
func TestSilentStoreCaseDLateReturn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
	mm := mem.New()
	mm.Write(0x800, 8, 7)
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	// Line deliberately cold: the SS-Load takes the full miss latency.
	m, err := New(cfg, mm, h)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		addi x1, x0, 0x800
		addi x2, x0, 7
		sd   x2, 0(x1)
		halt
	`
	if _, err := m.Run(asm.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	if m.Stats().SSLoadLate != 1 {
		t.Errorf("SSLoadLate = %d, want 1 (stats: %+v)", m.Stats().SSLoadLate, m.Stats())
	}
	if m.Stats().SilentStores != 0 {
		t.Errorf("late SS-Load must not mark the store silent")
	}
}

func TestSilentStoreEventTimeline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
	tr := obs.NewTrace()
	cfg.Probe = tr
	m, _ := ssSetup(t, cfg)
	if _, err := m.Run(asm.MustAssemble(caseASrc)); err != nil {
		t.Fatal(err)
	}
	var issueC, returnC, silentC int64 = -1, -1, -1
	for _, e := range tr.Events {
		switch {
		case e.Kind == obs.KindUopt && e.Detail == "ss-load":
			issueC = e.Cycle
		case e.Kind == obs.KindSSLoadReturn:
			returnC = e.Cycle
		case e.Kind == obs.KindDequeue && e.Detail == "silent":
			silentC = e.Cycle
		}
	}
	if issueC < 0 || returnC < 0 || silentC < 0 {
		t.Fatalf("missing events: issue=%d return=%d silent=%d", issueC, returnC, silentC)
	}
	if !(issueC < returnC && returnC <= silentC) {
		t.Errorf("event order wrong: issue=%d return=%d silent=%d", issueC, returnC, silentC)
	}
}

// TestAmplificationGadgetShape is the Figure 5 mechanism at pipeline
// level: with a direct-mapped L1, a delay load (miss) followed by a
// dependent flush load that evicts the target store's line creates a
// large end-to-end timing difference between a silent and a non-silent
// target store.
func TestAmplificationGadgetShape(t *testing.T) {
	run := func(storeVal int64) int64 {
		cfg := DefaultConfig()
		cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
		cfg.SQSize = 5 // the paper's 5-entry SQ
		hcfg := cache.DefaultHierConfig()
		hcfg.L1.Ways = 1 // direct-mapped L1, as in Figure 5
		mm := mem.New()

		const (
			S = uint64(0x800)  // target store address (L1 set 0, L2 set 32)
			A = uint64(0x4040) // delay-load address: cold, different L1 set than S
		)
		mm.Write(S, 8, 7)        // stale value at S
		mm.Write(A, 8, S+0x4000) // delay load yields the first flush address
		h := cache.MustNewHierarchy(hcfg)
		h.Access(S, 7, false) // precondition: line(S) present (L1 and L2)

		m := MustNew(cfg, mm, h)
		// The flush gadget must remove line(S) from the whole hierarchy
		// (an L2 remnant would cap the stall at the L2 hit latency), so
		// it is eight loads covering S's 8-way L2 set, all dependent on
		// the delay load's result so they execute after the SS-Load has
		// returned. They share S's L1 set too (the L2 stride is a
		// multiple of the L1 stride), evicting the direct-mapped line.
		src := `
			addi x1, x0, 0x4040   # &A
			addi x3, x0, 0x800    # &S
			addi x6, x0, ` + itoa(storeVal) + `
			ld   x4, 0(x1)        # delay gadget: miss
			ld   x5, 0(x4)        # flush gadget: 8 conflicting lines
			ld   x7, 0x4000(x4)
			ld   x8, 0x8000(x4)
			ld   x9, 0xc000(x4)
			ld   x10, 0x10000(x4)
			ld   x11, 0x14000(x4)
			ld   x12, 0x18000(x4)
			ld   x13, 0x1c000(x4)
			sd   x6, 0(x3)        # target store
			halt
		`
		res, err := m.Run(asm.MustAssemble(src))
		if err != nil {
			t.Fatal(err)
		}
		if storeVal == 7 && m.Stats().SilentStores != 1 {
			t.Fatalf("matching store not silent: %+v", m.Stats())
		}
		return res.Cycles
	}

	silent := run(7)    // store matches memory → silent → no refill stall
	nonSilent := run(8) // mismatch → must refill the flushed line from memory
	gap := nonSilent - silent
	if gap < 80 {
		t.Errorf("amplification gap = %d cycles (silent=%d, non-silent=%d), want ~memory latency",
			gap, silent, nonSilent)
	}
}

func itoa(v int64) string {
	// minimal helper to splice immediates into assembly text
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
