package taint

import (
	"errors"
	"testing"

	"pandora/internal/emu"
	"pandora/internal/isa"
	"pandora/internal/mem"
)

func TestRegistry(t *testing.T) {
	var r Registry
	key, err := r.Define("key")
	if err != nil {
		t.Fatal(err)
	}
	kern, err := r.Define("kernel")
	if err != nil {
		t.Fatal(err)
	}
	if key == kern || !key.Any() || !kern.Any() {
		t.Fatalf("labels not distinct: %v %v", key, kern)
	}
	both := key.Union(kern)
	if got := r.Format(both); got != "{key,kernel}" {
		t.Fatalf("Format = %q", got)
	}
	if got := r.Names(both); len(got) != 2 || got[0] != "key" || got[1] != "kernel" {
		t.Fatalf("Names = %v", got)
	}
	if r.Format(0) != "{}" {
		t.Fatalf("empty Format = %q", r.Format(0))
	}
}

func TestRegistryLimit(t *testing.T) {
	var r Registry
	for i := 0; i < MaxLabels; i++ {
		if _, err := r.Define("l"); err != nil {
			t.Fatalf("label %d: %v", i, err)
		}
	}
	if _, err := r.Define("overflow"); err == nil {
		t.Fatal("expected error past MaxLabels")
	}
}

func TestShadowMemory(t *testing.T) {
	sm := NewShadowMemory()
	sm.TaintRange(0x100, 4, 1)
	if sm.Labeled() != 4 {
		t.Fatalf("Labeled = %d", sm.Labeled())
	}
	if got := sm.Read(0x0fe, 4); got != 1 {
		t.Fatalf("overlapping Read = %v", got) // covers 0x100,0x101
	}
	if got := sm.Read(0x104, 8); got != 0 {
		t.Fatalf("disjoint Read = %v", got)
	}
	// An unlabeled write scrubs the shadow (and frees the entries).
	sm.Write(0x100, 2, 0)
	if got := sm.Read(0x100, 4); got != 1 {
		t.Fatalf("partial scrub Read = %v", got) // 0x102,0x103 still labeled
	}
	if sm.Labeled() != 2 {
		t.Fatalf("Labeled after scrub = %d", sm.Labeled())
	}
	sm.Write(0x102, 2, 2)
	if got := sm.Get(0x102); got != 2 {
		t.Fatalf("Get after overwrite = %v", got)
	}
}

func TestRecorderCap(t *testing.T) {
	r := &Recorder{Limit: 2}
	for i := 0; i < 5; i++ {
		r.Record(LeakEvent{Opt: OptSilentStore, Labels: 1})
	}
	if r.Total() != 5 || r.CountOf(OptSilentStore) != 5 {
		t.Fatalf("counts: total=%d class=%d", r.Total(), r.CountOf(OptSilentStore))
	}
	if len(r.Events) != 2 || r.Dropped != 3 {
		t.Fatalf("retained=%d dropped=%d", len(r.Events), r.Dropped)
	}
	var nilRec *Recorder
	nilRec.Record(LeakEvent{}) // must not panic
	if nilRec.Total() != 0 {
		t.Fatal("nil recorder total")
	}
}

// TestRecorderFirst checks that First[c] is class c's first event at
// any cap: with no events retained, with one, and once the cap has
// started dropping.
func TestRecorderFirst(t *testing.T) {
	evs := []LeakEvent{
		{Cycle: 1, Opt: OptSilentStore, Detail: "a"},
		{Cycle: 2, Opt: OptCacheAddr, Detail: "b"},
		{Cycle: 3, Opt: OptSilentStore, Detail: "c"},
		{Cycle: 4, Opt: OptCompSimp, Detail: "d"},
		{Cycle: 5, Opt: OptCacheAddr, Detail: "e"},
	}
	for _, limit := range []int{0, 1, DefaultEventLimit} {
		r := &Recorder{Limit: limit}
		for _, ev := range evs {
			r.Record(ev)
		}
		for _, want := range []LeakEvent{evs[0], evs[1], evs[3]} {
			if got := r.First[want.Opt]; got != want {
				t.Errorf("limit %d: First[%v] = %+v, want %+v", limit, want.Opt, got, want)
			}
		}
		if r.CountOf(OptPrefetcher) != 0 || r.First[OptPrefetcher] != (LeakEvent{}) {
			t.Errorf("limit %d: absent class has a first event", limit)
		}
		if kept := min(limit, len(evs)); len(r.Events) != kept || r.Dropped != uint64(len(evs)-kept) {
			t.Errorf("limit %d: retained=%d dropped=%d", limit, len(r.Events), r.Dropped)
		}
	}
}

// TestStepEmuRules drives each propagation rule through the emulator
// hook on a hand-written program.
func TestStepEmuRules(t *testing.T) {
	m := mem.New()
	m.Write(0x1000, 8, 0xdead)
	st := NewState()
	lbl, err := st.DefineSecret(Secret{Name: "s", Base: 0x1000, Len: 8})
	if err != nil {
		t.Fatal(err)
	}
	mc := emu.New(m)
	st.Attach(mc)

	prog := isa.Program{
		{Op: isa.ADDI, Rd: 1, Imm: 0x1000},    // x1 = &secret (unlabeled)
		{Op: isa.LD, Rd: 2, Rs1: 1},           // x2 <- secret       (load rule)
		{Op: isa.ADD, Rd: 3, Rs1: 2, Rs2: 0},  // x3 <- x2           (ALU rule)
		{Op: isa.ADDI, Rd: 4, Rs1: 0, Imm: 7}, // x4 clean
		{Op: isa.SD, Rs1: 1, Rs2: 3, Imm: 8},  // mem[0x1008] <- x3  (store rule)
		{Op: isa.SD, Rs1: 1, Rs2: 4, Imm: 16}, // clean store
		{Op: isa.BEQ, Rs1: 2, Rs2: 2, Imm: 8}, // predicate labeled  (control rule)
		{Op: isa.ADDI, Rd: 5, Rs1: 0, Imm: 1}, // skipped
		{Op: isa.ADDI, Rd: 6, Rs1: 0, Imm: 2}, // x6 <- Control
		{Op: isa.RDCYCLE, Rd: 7},              // x7 <- Control      (CSR rule)
		{Op: isa.HALT},
	}
	if err := mc.Run(prog, 1000); err != nil {
		t.Fatal(err)
	}

	if st.Regs[1] != 0 {
		t.Fatalf("x1 labeled %v", st.Regs[1])
	}
	for _, r := range []isa.Reg{2, 3} {
		if st.Regs[r] != lbl {
			t.Fatalf("x%d = %v, want %v", r, st.Regs[r], lbl)
		}
	}
	if got := st.Mem.Read(0x1008, 8); got != lbl {
		t.Fatalf("stored labels = %v", got)
	}
	if got := st.Mem.Read(0x1010, 8); got != 0 {
		t.Fatalf("clean store labels = %v", got)
	}
	if st.Control != lbl {
		t.Fatalf("Control = %v", st.Control)
	}
	// Post-branch writes inherit the control set.
	if st.Regs[6] != lbl || st.Regs[7] != lbl {
		t.Fatalf("control fold: x6=%v x7=%v", st.Regs[6], st.Regs[7])
	}
}

func TestResetRun(t *testing.T) {
	st := NewState()
	st.Regs[3] = 1
	st.Control = 1
	st.Mem.Write(0x10, 1, 1)
	st.Pred[7] = 1
	st.ResetRun()
	if st.Regs[3] != 0 || st.Control != 0 {
		t.Fatal("architectural shadow not cleared")
	}
	if st.Mem.Get(0x10) != 1 || st.Pred[7] != 1 {
		t.Fatal("persistent shadow was cleared")
	}
}

func TestObserversNilSafe(t *testing.T) {
	var st *State
	// All observers must be no-ops on a nil state (unshadowed machines).
	st.ObserveSilentStore(1, 2, false, 1)
	st.ObserveSimplify(1, 2, "", 1)
	st.ObservePack(1, 2, 1)
	st.ObserveReuse(1, 2, 1)
	st.ObserveValuePred(1, 2, 1)
	st.ObserveRFC(1, 2, 1)
	st.ObservePrefetch(0x10, "d", 1)
	st.ObserveControlFlow(1, 2, 1)

	// Unlabeled trigger conditions record nothing.
	st = NewState()
	st.ObserveSilentStore(1, 2, false, 0)
	if st.Rec.Total() != 0 {
		t.Fatal("unlabeled observation recorded")
	}
	st.ObserveSilentStore(1, 2, true, 1)
	if st.Rec.Total() != 1 || st.Rec.Events[0].MLDRef != "silent_stores_lsq" {
		t.Fatalf("events: %+v", st.Rec.Events)
	}
}

// TestObserveCacheAddrUntaintedAllocFree pins the armed cache-address
// observer's common case: an untainted access, made by every load and
// store of a contract cell, records nothing and allocates nothing. A
// tainted one still records its formatted detail.
func TestObserveCacheAddrUntaintedAllocFree(t *testing.T) {
	st := NewState()
	st.ObserveAddrs = true
	if n := testing.AllocsPerRun(100, func() { st.ObserveCacheAddr(1, 2, 0x1040, 0) }); n != 0 {
		t.Errorf("untainted ObserveCacheAddr: %v allocs, want 0", n)
	}
	if st.Rec.Total() != 0 {
		t.Fatal("untainted access recorded")
	}
	st.ObserveCacheAddr(1, 2, 0x1040, 1)
	if st.Rec.Total() != 1 || st.Rec.Events[0].Detail != "tainted access address 0x1040" {
		t.Fatalf("tainted access: %+v", st.Rec.Events)
	}
}

func TestMLDRefs(t *testing.T) {
	for c := OptClass(0); c < OptClass(NumOptClasses); c++ {
		if c.MLDRef() == "" {
			t.Errorf("%v has no MLD descriptor", c)
		}
		if c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestSelfTest(t *testing.T) {
	if err := SelfTest(false); err != nil {
		t.Fatalf("intact rules: %v", err)
	}
	if err := SelfTest(true); err != nil {
		t.Fatalf("broken rule: %v", err)
	}
}

// TestSecretBounds: a region must be non-empty, at most MaxSecretLen
// bytes and must not wrap past the top of the address space; parsing
// and labeling both reject the rest with a *SecretError, and a rejected
// region allocates no label.
func TestSecretBounds(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"0x1000:8", true},
		{"0:65536", true},
		{"0xfffffffffffffff0:16", true},
		{"0:65537", false},
		{"0:0xffffffffffff", false},
		{"0xfffffffffffffff0:17", false},
		{"0x1000:0", false},
		{"0x1000", false},
		{"zz:8", false},
		{"0x1000:-1", false},
	} {
		sec, err := ParseSecret(tc.in)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.in, err)
			} else if err := sec.Check(); err != nil {
				t.Errorf("%s: parsed but Check = %v", tc.in, err)
			}
			continue
		}
		var se *SecretError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v (%T), want *SecretError", tc.in, err, err)
		}
	}
	st := NewState()
	for _, s := range []Secret{
		{Name: "huge", Base: 0, Len: 0xffffffffffff},
		{Name: "wrap", Base: ^uint64(0), Len: 2},
		{Name: "empty", Base: 0x1000},
	} {
		var se *SecretError
		if _, err := st.DefineSecret(s); !errors.As(err, &se) {
			t.Errorf("DefineSecret(%v) = %v, want *SecretError", s, err)
		}
	}
	if names := st.Names.Names(^LabelSet(0)); len(names) != 0 || st.Mem.Labeled() != 0 {
		t.Errorf("rejected regions left labels %v and %d labeled bytes", names, st.Mem.Labeled())
	}
}
