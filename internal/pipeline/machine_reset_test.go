package pipeline

import (
	"reflect"
	"testing"
	"unsafe"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/uopt"
)

// powerOn is m with the fields Reset carries over as buffers, and the
// attachments the caller owns, cleared: what must equal a new machine's
// after Reset. The predictor tables stay (their contents must be zero);
// an empty one stands for New's nil. The value predictor in use is
// compared through vp, and the reuse buffer only while reuse is on.
func powerOn(m *Machine) Machine {
	c := *m
	c.mem, c.hier, c.oracle = nil, nil, nil
	c.uopPool, c.sqPool, c.uopAllocated, c.sqAllocated = nil, nil, 0, 0
	c.tmpl, c.sq, c.fenceQ, c.replay = nil, nil, nil, nil
	c.issueScratch, c.completeScratch, c.squashScratch, c.replaySwap = nil, nil, nil, nil
	c.aluScratch = nil
	if len(c.btable) == 0 {
		c.btable, c.stlf = nil, nil
	}
	c.lastValue, c.stride = uopt.Predictor{}, uopt.StridePredictor{}
	if c.cfg.Reuse == uopt.ReuseOff {
		c.reuse = nil
	}
	return c
}

// TestResetMatchesNew aborts a run mid-flight — µops in the ROB, store
// queue and fence queue, predictor and reuse tables trained, invariant
// bitmaps marked — then resets the machine under each config and
// compares every field with a new machine's: any state a later field
// adds that Reset forgets shows up here. The pools must come back
// complete.
func TestResetMatchesNew(t *testing.T) {
	prog := asm.MustAssemble(specAllocKernel)
	checked := specAllocConfig()
	checked.CheckInvariants = true
	checked.ValuePred = uopt.VPConfig{Scheme: uopt.VPLastValue, Threshold: 1}
	checked.Reuse = uopt.SchemeSv
	rfc := DefaultConfig()
	rfc.RFC, rfc.PhysRegs = uopt.RFCAnyValue, 48
	tables := DefaultConfig()
	tables.ValuePred, tables.Reuse = uopt.VPConfig{Scheme: uopt.VPLastValue, Threshold: 3}, uopt.SchemeSn
	stride := DefaultConfig()
	stride.ValuePred = uopt.VPConfig{Scheme: uopt.VPStride, Threshold: 2}
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "spec+checked": checked, "rfc": rfc, "vp+reuse": tables, "stride": stride} {
		for _, cut := range []int64{50, 137, DefaultConfig().MaxCycles} {
			before := checked
			before.MaxCycles = cut
			m := newTestMachine(t, before)
			m.Run(prog)
			m.Run(prog)

			pm, hier := mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig())
			if err := m.Reset(cfg, pm, hier); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg, pm, hier)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := powerOn(m), powerOn(fresh); !reflect.DeepEqual(got, want) {
				for _, f := range differingFields(&got, &want) {
					t.Errorf("%s, cut at %d: field %s differs from a new machine's", name, cut, f)
				}
			}
			checkPoolsComplete(t, m, name)
		}
	}
}

// differingFields names the fields of *a and *b that are not deeply
// equal. The fields are unexported, so each is read through its address.
func differingFields(a, b *Machine) []string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	field := func(v reflect.Value, i int) any {
		f := v.Field(i)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
	}
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(field(va, i), field(vb, i)) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// TestResetAllocs pins Reset and Run on a warm machine at zero
// allocations: every structure, the value file included, is reused.
func TestResetAllocs(t *testing.T) {
	cfg := specAllocConfig()
	cfg.CheckInvariants = true
	m := newTestMachine(t, cfg)
	pm, hier := mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig())
	prog := asm.MustAssemble(specAllocKernel)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := m.Reset(cfg, pm, hier); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(prog); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Reset and Run on a warm machine allocate %v times, want 0", allocs)
	}
}
