package core

import (
	"context"
	"fmt"
	"strings"

	"pandora/internal/asm"
	"pandora/internal/attack"
	"pandora/internal/bsaes"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
)

// This file is the orchestration layer of `pandora scan`: it builds a
// shadowed machine for a scenario (the AES spill kernel, the eBPF
// sandbox, a speculation witness, or user-supplied assembly with
// `.secret` directives), runs it once, and folds the taint recorder
// into a JSON-friendly report. The scenario builders take an optional
// probe; `pandora trace` is the same run with a recording one attached.

// ScanEvent is one leak event with label bits resolved to names.
type ScanEvent struct {
	Cycle  int64    `json:"cycle"`
	PC     int64    `json:"pc"`
	Opt    string   `json:"opt"`
	MLDRef string   `json:"mld"`
	Labels []string `json:"labels"`
	Detail string   `json:"detail,omitempty"`
}

// ScanClassCount is the exact event count for one optimization class.
type ScanClassCount struct {
	Opt    string `json:"opt"`
	MLDRef string `json:"mld"`
	Count  uint64 `json:"count"`
}

// ScanSummary is one scan's full report.
type ScanSummary struct {
	Scenario string           `json:"scenario"`
	Machine  string           `json:"machine,omitempty"`
	Secrets  []string         `json:"secrets"`
	Total    uint64           `json:"total_events"`
	Dropped  uint64           `json:"dropped_events,omitempty"`
	ByClass  []ScanClassCount `json:"by_class"`
	Events   []ScanEvent      `json:"events"`
}

// Count returns the exact number of events whose class renders as opt.
func (s ScanSummary) Count(opt string) uint64 {
	for _, c := range s.ByClass {
		if c.Opt == opt {
			return c.Count
		}
	}
	return 0
}

// HasLeak reports whether a retained event of class opt carries label.
func (s ScanSummary) HasLeak(opt, label string) bool {
	for _, ev := range s.Events {
		if ev.Opt != opt {
			continue
		}
		for _, l := range ev.Labels {
			if l == label {
				return true
			}
		}
	}
	return false
}

// Format renders the summary as a human-readable report.
func (s ScanSummary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan %s", s.Scenario)
	if s.Machine != "" {
		fmt.Fprintf(&b, " [%s]", s.Machine)
	}
	fmt.Fprintf(&b, ": secrets=%s\n", strings.Join(s.Secrets, ","))
	if s.Total == 0 {
		b.WriteString("  clean: no optimization trigger condition depended on a secret\n")
		return b.String()
	}
	for _, c := range s.ByClass {
		fmt.Fprintf(&b, "  %-22s %6d events  (mld: %s)\n", c.Opt, c.Count, c.MLDRef)
	}
	const maxShown = 10
	for i, ev := range s.Events {
		if i == maxShown {
			fmt.Fprintf(&b, "  ... %d more events retained (%d dropped)\n",
				len(s.Events)-maxShown, s.Dropped)
			break
		}
		fmt.Fprintf(&b, "  cycle %-7d pc %-5d %-22s {%s} %s\n",
			ev.Cycle, ev.PC, ev.Opt, strings.Join(ev.Labels, ","), ev.Detail)
	}
	return b.String()
}

// Summarize folds a shadow state's recorder into a report. Contributor
// packages (internal/kernels) that build their own machines use it too,
// so every scenario's scan output has the same shape.
func Summarize(st *taint.State, scenario, machine string) ScanSummary {
	s := ScanSummary{
		Scenario: scenario,
		Machine:  machine,
		Secrets:  st.Names.Names(^taint.LabelSet(0)),
		Total:    st.Rec.Total(),
		Dropped:  st.Rec.Dropped,
	}
	for i := 0; i < taint.NumOptClasses; i++ {
		c := taint.OptClass(i)
		if n := st.Rec.CountOf(c); n > 0 {
			s.ByClass = append(s.ByClass, ScanClassCount{Opt: c.String(), MLDRef: c.MLDRef(), Count: n})
		}
	}
	for _, ev := range st.Rec.Events {
		s.Events = append(s.Events, ScanEvent{
			Cycle:  ev.Cycle,
			PC:     ev.PC,
			Opt:    ev.Opt.String(),
			MLDRef: ev.MLDRef,
			Labels: st.Names.Names(ev.Labels),
			Detail: ev.Detail,
		})
	}
	return s
}

// scanAES scans the bitslice-AES encryption-server kernel (Section V-A):
// the victim's stale final-round slices sit labeled in the spill slots
// and the attacker's un-instrumented encryption runs over them. With
// silent stores disabled the kernel is constant-time and scans clean;
// with them enabled every spill store's elision check reads the stale
// key-derived bytes — the Figure 6 precondition, rediscovered by the
// scanner without any timing measurement. probe, when non-nil, watches
// both runs on the shared machine.
func scanAES(ctx context.Context, silentStores bool, probe obs.Probe) (ScanSummary, error) {
	var victimKey, victimPlain [16]byte
	for i := range victimKey {
		victimKey[i] = byte(0x0f ^ i*0x11)
	}
	tr, err := bsaes.EncryptTrace(victimPlain[:], victimKey[:])
	if err != nil {
		return ScanSummary{}, err
	}

	st := taint.NewState()
	m := mem.New()
	hier, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		return ScanSummary{}, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Taint = st
	cfg.Probe = probe
	flag, stop := pipeline.CancelFromContext(ctx)
	defer stop()
	cfg.Cancel = flag
	scenario := "aes-baseline"
	if silentStores {
		cfg.SilentStores = &pipeline.SilentStoreConfig{}
		cfg.SQSize = 5
		scenario = "aes-silentstores"
	}
	machine, err := pipeline.New(cfg, m, hier)
	if err != nil {
		return ScanSummary{}, err
	}

	// The victim encrypts first: its slices are spilled to the stack and
	// the slot lines are left warm in the cache — the state the attacker
	// inherits. The victim computes the slices from its key off-simulation
	// (EncryptTrace), so the spilled bytes are then labeled key-derived.
	if _, err := machine.Run(attack.EncryptKernel(tr.FinalSlices, -1, false)); err != nil {
		return ScanSummary{}, err
	}
	lbl, err := st.Names.Define("key")
	if err != nil {
		return ScanSummary{}, err
	}
	for k := 0; k < 8; k++ {
		st.Mem.TaintRange(attack.SpillSlotAddr(k), 2, lbl)
	}

	// One attacker encryption, no amplification gadget.
	var att bsaes.State
	for i := range att {
		att[i] = uint16(0xA5A5 ^ i*0x0101)
	}
	if _, err := machine.Run(attack.EncryptKernel(att, -1, false)); err != nil {
		return ScanSummary{}, err
	}
	return Summarize(st, scenario, ""), nil
}

// scanEBPF scans the eBPF universal-read-gadget scenario (Section V-B):
// a verified sandbox program that never architecturally touches the
// labeled kernel region, run once on a machine whose 3-level IMP is
// shadowed. The scanner reports the prefetcher reading labeled kernel
// bytes and forming prefetch addresses from them; a probe sees the
// prefetch cascade.
func scanEBPF(ctx context.Context, probe obs.Probe) (ScanSummary, error) {
	secret := []byte("pandora-scan-secret-byte")
	st := taint.NewState()
	cfg := attack.DefaultURGConfig()
	cfg.Taint = st
	cfg.Probe = probe
	u, err := attack.NewURG(cfg, secret)
	if err != nil {
		return ScanSummary{}, err
	}
	if _, err := st.DefineSecret(taint.Secret{Name: "kernel", Base: u.SecretBase(), Len: uint64(len(secret))}); err != nil {
		return ScanSummary{}, err
	}
	if err := ctx.Err(); err != nil {
		return ScanSummary{}, err
	}
	if err := u.RunOnce(0); err != nil {
		return ScanSummary{}, err
	}
	return Summarize(st, "ebpf-urg", ""), nil
}

// scanSpecWitness runs one of the speculation timing witnesses under the
// taint scanner — on its enabled machine, or on its baseline when
// enabled is false — with the secret word labeled instead of contrasted.
// Store-to-leak forwarding (Schwarz et al., 1905.05725): the predictor
// forwards a store whose address derives from the secret before that
// address resolves, so the forward and its retire-time replay depend on
// the secret. Speculative vectorization (Karuppanan & Mirbagher,
// 2302.01131): a squashed lane load forms its cache address from the
// secret — the squash unwinds the ROB, not the cache, so the event is
// recorded although the load is architecturally dead.
func scanSpecWitness(ctx context.Context, name, scenario string, enabled bool, probe obs.Probe) (ScanSummary, error) {
	for _, w := range witnesses() {
		if w.name != name {
			continue
		}
		cfg := w.baseline()
		if enabled {
			cfg = w.config()
		}
		cfg.Probe = probe
		st := taint.NewState()
		if _, err := runWitnessKernel(ctx, w, cfg, w.secrets[1], st); err != nil {
			return ScanSummary{}, err
		}
		return Summarize(st, scenario, ""), nil
	}
	return ScanSummary{}, fmt.Errorf("core: no witness %q", name)
}

// ScanSource assembles src (whose `.secret` directives declare the
// labeled regions, optionally extended by extra), runs it once on the
// machine described by spec, and reports every optimization trigger
// condition that depended on a secret.
func ScanSource(ctx context.Context, src, spec string, extra []taint.Secret) (ScanSummary, error) {
	unit, err := asm.AssembleUnit(src)
	if err != nil {
		return ScanSummary{}, err
	}
	var secrets []taint.Secret
	for _, s := range unit.Secrets {
		secrets = append(secrets, taint.Secret{Name: s.Name, Base: s.Base, Len: s.Len})
	}
	secrets = append(secrets, extra...)
	if len(secrets) == 0 {
		return ScanSummary{}, fmt.Errorf("core: nothing to scan: no .secret directive and no -secret flag")
	}

	cfg, err := ParseMachineSpec(spec)
	if err != nil {
		return ScanSummary{}, err
	}
	st := taint.NewState()
	cfg.Taint = st
	flag, stop := pipeline.CancelFromContext(ctx)
	defer stop()
	cfg.Cancel = flag
	m := mem.New()
	hier, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		return ScanSummary{}, err
	}
	machine, err := pipeline.New(cfg, m, hier)
	if err != nil {
		return ScanSummary{}, err
	}
	for _, s := range secrets {
		if _, err := st.DefineSecret(s); err != nil {
			return ScanSummary{}, err
		}
	}
	if _, err := machine.Run(unit.Prog); err != nil {
		return ScanSummary{}, err
	}
	return Summarize(st, "source", spec), nil
}
