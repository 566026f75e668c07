package taint

import (
	"fmt"
	"reflect"
	"testing"

	"pandora/internal/emu"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/obs"
)

// TestResetMatchesNewState uses a state fully — secrets defined, labels
// propagated into registers, memory, the control set and the predictor
// shadow, the recorder run past its limit, a probe attached and both
// switches set — then resets it and compares every field, and every
// field of the registry, shadow memory and recorder it points to, with
// NewState's: state a later field adds that Reset forgets shows up here.
// Retained storage is the only difference allowed: an empty slice
// matches a nil one.
func TestResetMatchesNewState(t *testing.T) {
	st := NewState()
	m := mem.New()
	m.Write(0x1000, 8, 0xdead)
	for _, s := range []Secret{{Name: "k", Base: 0x1000, Len: 8}, {Name: "n", Base: 0x2000, Len: 64}} {
		if _, err := st.DefineSecret(s); err != nil {
			t.Fatal(err)
		}
	}
	mc := emu.New(m)
	st.Attach(mc)
	prog := isa.Program{
		{Op: isa.ADDI, Rd: 1, Imm: 0x1000},
		{Op: isa.LD, Rd: 2, Rs1: 1},
		{Op: isa.SD, Rs1: 1, Rs2: 2, Imm: 64},
		{Op: isa.BEQ, Rs1: 2, Rs2: 2, Imm: 4},
		{Op: isa.HALT},
	}
	if err := mc.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	st.Pred[0x40] = 1
	trace := obs.NewTrace()
	st.Probe = trace
	st.ObserveAddrs, st.BreakALU = true, true
	for i := 0; i <= DefaultEventLimit; i++ {
		st.ObserveCacheAddr(int64(i), 8, 0x1000, 1)
	}
	if st.Rec.Dropped == 0 || st.Regs[2] == 0 || st.Control == 0 || st.Mem.Labeled() <= 72 || trace.Len() == 0 {
		t.Fatalf("state not fully used: dropped %d, x2 %v, control %v, %d labeled bytes, %d probe events",
			st.Rec.Dropped, st.Regs[2], st.Control, st.Mem.Labeled(), trace.Len())
	}
	names, shadow, rec := st.Names, st.Mem, st.Rec

	st.Reset()
	for _, f := range differingFields("", reflect.ValueOf(st).Elem(), reflect.ValueOf(NewState()).Elem()) {
		t.Errorf("field %s differs from NewState's", f)
	}
	if st.Names != names || st.Mem != shadow || st.Rec != rec || cap(st.Rec.Events) < DefaultEventLimit || cap(st.Names.names) < 2 {
		t.Error("Reset did not keep the registry, shadow memory and recorder storage")
	}
	if l, err := st.DefineSecret(Secret{Name: "k2", Base: 0x3000, Len: 1}); err != nil || l != 1 {
		t.Errorf("first label after Reset = %v, %v; want bit 0", l, err)
	}
}

// TestResetAllocs pins Reset, and relabeling and recording on the reset
// state within the sizes it reached before, at zero allocations.
func TestResetAllocs(t *testing.T) {
	st := NewState()
	use := func() {
		st.Reset()
		if _, err := st.DefineSecret(Secret{Name: "k", Base: 0x1000, Len: 32}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			st.ObserveControlFlow(int64(i), 4, 1)
		}
		st.Pred[0x40] = 1
	}
	use()
	if n := testing.AllocsPerRun(20, use); n != 0 {
		t.Errorf("reusing a reset state allocates %v times, want 0", n)
	}
}

// differingFields names the fields of struct values a and b that
// sameIgnoringCap finds different, descending into fields that point to
// structs.
func differingFields(prefix string, a, b reflect.Value) []string {
	var out []string
	for i := 0; i < a.NumField(); i++ {
		name := prefix + a.Type().Field(i).Name
		fa, fb := a.Field(i), b.Field(i)
		if fa.Kind() == reflect.Pointer && fa.Type().Elem().Kind() == reflect.Struct && !fa.IsNil() && !fb.IsNil() {
			out = append(out, differingFields(name+".", fa.Elem(), fb.Elem())...)
		} else if !sameIgnoringCap(fa, fb) {
			out = append(out, name)
		}
	}
	return out
}

// sameIgnoringCap is reflect.DeepEqual, except that a nil slice equals an
// empty one and a nil map an empty one. It reads unexported fields.
func sameIgnoringCap(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameIgnoringCap(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameIgnoringCap(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameIgnoringCap(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !sameIgnoringCap(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}
