package pipeline_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pandora/internal/cache"
	"pandora/internal/diffcheck"
	"pandora/internal/dmp"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
)

// Machine.Reset must leave exactly the machine New builds: a program run
// on a reset machine, whatever ran on it before, must be
// indistinguishable from the same program on a new one. The contract
// enumeration relies on this to reuse one machine, memory and hierarchy
// per worker.

// eventLog records every probe event.
type eventLog struct{ evs []obs.Event }

func (l *eventLog) Emit(ev obs.Event) { l.evs = append(l.evs, ev) }

// cancelAfter raises flag once it has seen n events: a run it watches is
// cancelled at the next checkpoint after that.
type cancelAfter struct {
	flag *pipeline.CancelFlag
	n    int
}

func (c *cancelAfter) Emit(obs.Event) {
	if c.n--; c.n == 0 {
		c.flag.Cancel()
	}
}

// resetRun is one program's run: its machine config, memory image and
// cache variant. withTaint arms the scanner with a secret over the first
// scratch region.
type resetRun struct {
	prog      isa.Program
	mask      diffcheck.ToggleMask
	variant   diffcheck.CacheVariant
	withTaint bool
}

// config returns the run's machine config and its taint state (nil
// without taint).
func (r resetRun) config(t *testing.T) (pipeline.Config, *taint.State) {
	cfg := diffcheck.PipeConfig(r.mask)
	if !r.withTaint {
		return cfg, nil
	}
	st := taint.NewState()
	st.ObserveAddrs = true
	bases, _ := diffcheck.ScratchRegions()
	if _, err := st.DefineSecret(taint.Secret{Name: "k", Base: bases[0], Len: 64}); err != nil {
		t.Fatal(err)
	}
	cfg.Taint = st
	return cfg, st
}

// outcome is everything a run leaves that a caller can observe.
type outcome struct {
	res    pipeline.Result
	err    string
	dump   string
	regs   [isa.NumRegs]uint64
	events []obs.Event
	leaks  string
	mem    *mem.Memory
}

// finish runs r.prog on m, recording events, and collects the outcome.
func finish(m *pipeline.Machine, r resetRun, log *eventLog, st *taint.State) outcome {
	res, err := m.Run(r.prog)
	o := outcome{res: res, events: log.evs, mem: m.Memory()}
	if err != nil {
		o.err = err.Error()
		var se *pipeline.StallError
		if errors.As(err, &se) && se.Dump != nil {
			o.dump = string(se.Dump.JSON())
		}
	}
	for r := range o.regs {
		o.regs[r] = m.Reg(isa.Reg(r))
	}
	if st != nil {
		o.leaks = fmt.Sprint(st.Rec.Total(), st.Rec.First)
	}
	return o
}

// hierarchyFor builds v's hierarchy, with its stride prefetcher attached.
func hierarchyFor(t *testing.T, v diffcheck.CacheVariant) *cache.Hierarchy {
	h, err := cache.NewHierarchy(v.Config)
	if err != nil {
		t.Fatal(err)
	}
	if v.Stride {
		h.AddListener(dmp.NewStride(h))
	}
	return h
}

// checkReset runs a on a new machine, cut short by MaxCycles=cutAt or,
// after cutAt probe events, by cancellation when cut is 1 or 2, then resets
// the machine, its memory and (when b shares a's geometry) its hierarchy
// to b and runs b. The outcome must equal b's on a new machine.
func checkReset(t *testing.T, a, b resetRun, cut int, cutAt int64) {
	t.Helper()
	mm := mem.New()
	diffcheck.InitMemory(mm)
	hier := hierarchyFor(t, a.variant)
	cfgA, _ := a.config(t)
	switch cut {
	case 1:
		cfgA.MaxCycles = cutAt
	case 2:
		cfgA.Cancel = &pipeline.CancelFlag{}
		cfgA.Probe = &cancelAfter{flag: cfgA.Cancel, n: int(cutAt)}
	}
	m, err := pipeline.New(cfgA, mm, hier)
	if err != nil {
		t.Fatal(err)
	}
	// A runs until it is cut, at most 64 times: warm runs train the
	// caches and predictor tables further, and the clock reaches the
	// cancellation checkpoints (every 1024 cycles) that one short run
	// does not.
	for i := 0; i < 64; i++ {
		if _, err := m.Run(a.prog); err != nil {
			break
		}
	}

	mm.Reset()
	diffcheck.InitMemory(mm)
	if a.variant.Config == b.variant.Config {
		hier.Reset()
		if b.variant.Stride {
			hier.AddListener(dmp.NewStride(hier))
		}
	} else {
		hier = hierarchyFor(t, b.variant)
	}
	cfgB, st := b.config(t)
	log := &eventLog{}
	cfgB.Probe = log
	if err := m.Reset(cfgB, mm, hier); err != nil {
		t.Fatal(err)
	}
	got := finish(m, b, log, st)

	fm := mem.New()
	diffcheck.InitMemory(fm)
	cfgB, st = b.config(t)
	log = &eventLog{}
	cfgB.Probe = log
	fresh, err := pipeline.New(cfgB, fm, hierarchyFor(t, b.variant))
	if err != nil {
		t.Fatal(err)
	}
	want := finish(fresh, b, log, st)

	switch {
	case got.err != want.err:
		t.Fatalf("error after reset %q, new machine %q\nreset dump: %s\nnew dump: %s", got.err, want.err, got.dump, want.dump)
	case got.dump != want.dump:
		t.Fatalf("core dump after reset:\n%s\nnew machine:\n%s", got.dump, want.dump)
	case got.res != want.res:
		t.Fatalf("result after reset %+v, new machine %+v", got.res, want.res)
	case got.regs != want.regs:
		t.Fatalf("registers after reset %v, new machine %v", got.regs, want.regs)
	case got.leaks != want.leaks:
		t.Fatalf("leaks after reset %s, new machine %s", got.leaks, want.leaks)
	}
	if d := mem.Diff(got.mem, want.mem, 1); len(d) > 0 {
		t.Fatalf("memory after reset differs at %#x: %#x, new machine %#x", d[0].Addr, d[0].A, d[0].B)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		n := min(len(got.events), len(want.events))
		i := 0
		for i < n && got.events[i] == want.events[i] {
			i++
		}
		t.Fatalf("event %d of %d/%d differs after reset", i, len(got.events), len(want.events))
	}
}

// FuzzResetEquivalence runs program A, sometimes cut short, then resets
// the machine to program B's mask and cache variant and requires B to run
// exactly as on a new machine. The seeds pair speculative masks (the
// bimodal and forwarding tables A trains), the Random policy on both
// sides (its generator must be re-seeded) and every way of ending A.
func FuzzResetEquivalence(f *testing.F) {
	spec := uint16(diffcheck.TogSpec | diffcheck.TogStLF)
	all := uint16(diffcheck.AllMasks - 1)
	for _, s := range []struct {
		seedA, seedB int64
		maskA, maskB uint16
		cut, knob    uint8
	}{
		{1, 2, 0, 0, 0, 0},
		{7, 7, spec, spec, 0, 0},
		{282, 11, all, all, 0, 1},
		{4, 10, all, spec, 1, 10},   // tiny-random both sides
		{370, 154, all, 0, 0, 0},    // tiny-random, both evicting
		{5, 11, spec, 0, 2, 30},     // stride-pbuf both sides
		{3, 9, all, all, 1, 3},      // tiny-plru-ways6 both sides
		{6, 12, 0, all, 2, 200},     // default-lru both sides
		{13, 14, spec, spec, 1, 12}, // tiny-lru → tiny-plru-pow2
	} {
		f.Add(s.seedA, s.maskA, s.seedB, s.maskB, s.cut, s.knob)
	}
	variants := diffcheck.CacheVariants()
	f.Fuzz(func(t *testing.T, seedA int64, maskA uint16, seedB int64, maskB uint16, cut, knob uint8) {
		run := func(seed int64, mask uint16) resetRun {
			return resetRun{
				prog:      generated(seed),
				mask:      diffcheck.ToggleMask(mask % diffcheck.AllMasks),
				variant:   variants[uint64(seed)%uint64(len(variants))],
				withTaint: seed&1 == 0,
			}
		}
		checkReset(t, run(seedA, maskA), run(seedB, maskB), int(cut%3), 1+int64(knob%64)*8)
	})
}
