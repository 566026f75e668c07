package kernels

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pandora/internal/core"
	"pandora/internal/diffcheck"
	"pandora/internal/parallel"
	"pandora/internal/taint"
)

// The contract-enumeration engine: every kernel × every optimization
// mask × every cache variant, each cell scanned under the taint engine
// with the cache-address observer armed, classified clean or leaking.
// The result is the machine-generated extension of the paper's Table I
// over real crypto kernels instead of hand-built witnesses.

// Options bounds an enumeration. Zero values mean "everything": all
// kernels, all 2⁹ masks, all cache variants.
type Options struct {
	// Kernels selects a subset by name (library order is imposed).
	Kernels []string
	// Masks selects a subset of diffcheck toggle masks.
	Masks []diffcheck.ToggleMask
	// Variants selects a subset of diffcheck cache-variant names.
	Variants []string
	// Workers sizes the parallel.Map pool (0 = GOMAXPROCS). The report
	// is byte-identical for every worker count.
	Workers int
}

// Cell is one (mask, variant) scan of one kernel.
type Cell struct {
	Mask    uint16   `json:"mask"`
	Variant string   `json:"variant"`
	Classes []string `json:"classes,omitempty"` // leak classes, class order
}

// FirstEvent is the earliest leak event of one class across a kernel's
// whole enumeration, in (variant, mask, event) order — the exemplar the
// report prints.
type FirstEvent struct {
	Mask    uint16   `json:"mask"`
	MaskStr string   `json:"mask_str"`
	Variant string   `json:"variant"`
	Cycle   int64    `json:"cycle"`
	PC      int64    `json:"pc"`
	Labels  []string `json:"labels,omitempty"`
	Detail  string   `json:"detail,omitempty"`
}

// ClassReport aggregates one leak class over a kernel's enumeration.
type ClassReport struct {
	Class  string     `json:"class"`
	MLDRef string     `json:"mld"`
	Cells  int        `json:"cells"` // cells where the class fired
	First  FirstEvent `json:"first"`
}

// VariantReport aggregates one cache variant over a kernel's masks.
type VariantReport struct {
	Variant string `json:"variant"`
	Clean   int    `json:"clean"`
	Leaking int    `json:"leaking"`
	// LeakMask is a hex bitmap over the enumerated masks (bit i = the
	// i-th mask in the enumeration order leaked), so two reports can be
	// diffed cell-exactly without carrying every cell.
	LeakMask string `json:"leak_mask"`
}

// KernelReport is one kernel's verdict matrix.
type KernelReport struct {
	Kernel       string `json:"kernel"`
	Title        string `json:"title"`
	ConstantTime bool   `json:"constant_time"`
	// BaselineVerdict is the mask-0, first-variant cell: "clean" or
	// "leaks" — the constant-time base-contract verdict.
	BaselineVerdict string          `json:"baseline_verdict"`
	Verdict         string          `json:"verdict"` // "clean" | "leaks"
	Variants        []VariantReport `json:"variants"`
	Classes         []ClassReport   `json:"classes,omitempty"`
}

// Report is the Table-I extension over the kernel library.
type Report struct {
	Masks    int            `json:"masks"`
	Variants []string       `json:"variants"`
	Kernels  []KernelReport `json:"kernels"`
}

// cellItem is one cell of the enumeration for parallel.Map: indices
// into Enumerate's kernel, variant and mask lists.
type cellItem struct {
	kernel, variant, mask int
}

// cellResult is one cell's verdict: bit c of classes is set when leak
// class c fired, and first holds those classes' first events in class
// order.
type cellResult struct {
	classes uint16
	first   []cellEvent
}

// cellEvent is a class's first event in one cell; the fold adds the
// cell's mask and variant to make a FirstEvent. It is narrower than
// FirstEvent because a pass holds every cell's results until the fold:
// carrying the two strings and the mask per cell raised the contract
// benchmark's peak RSS from about 26 to 31 MB.
type cellEvent struct {
	Cycle  int64
	PC     int64
	Labels []string
	Detail string
}

// Enumerate sweeps the selected kernels over the selected masks ×
// variants on the parallel engine. Results are deterministic and
// independent of Workers: items are enumerated in (kernel, variant,
// mask) order and folded in that order.
func Enumerate(ctx context.Context, opt Options) (*Report, error) {
	names, err := ValidateNames(opt.Kernels)
	if err != nil {
		return nil, err
	}
	masks := opt.Masks
	if len(masks) == 0 {
		masks = make([]diffcheck.ToggleMask, diffcheck.AllMasks)
		for i := range masks {
			masks[i] = diffcheck.ToggleMask(i)
		}
	}
	variants, err := selectVariants(opt.Variants)
	if err != nil {
		return nil, err
	}

	ks := make([]Kernel, len(names))
	for i, name := range names {
		ks[i], _ = KernelByName(name)
	}
	items := make([]cellItem, 0, len(ks)*len(variants)*len(masks))
	for ki := range ks {
		for vi := range variants {
			for mi := range masks {
				items = append(items, cellItem{kernel: ki, variant: vi, mask: mi})
			}
		}
	}

	results, err := parallel.Map(ctx, parallel.Workers(opt.Workers), items, func(ctx context.Context, _ int, it cellItem) (cellResult, error) {
		return core.WithScanContext(func(sc *core.ScanContext) (cellResult, error) {
			return runCell(ctx, sc, ks[it.kernel], variants[it.variant], masks[it.mask])
		})
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Masks: len(masks)}
	for _, v := range variants {
		rep.Variants = append(rep.Variants, v.Name)
	}
	idx := 0
	for _, k := range ks {
		kr := KernelReport{Kernel: k.Name, Title: k.Title, ConstantTime: k.ConstantTime}
		firsts := make(map[taint.OptClass]FirstEvent)
		cellsPerClass := make(map[taint.OptClass]int)
		anyLeak := false
		for _, v := range variants {
			vr := VariantReport{Variant: v.Name}
			bitmap := make([]byte, (len(masks)+7)/8)
			for mi, mask := range masks {
				res := results[idx]
				idx++
				if res.classes == 0 {
					vr.Clean++
					continue
				}
				vr.Leaking++
				anyLeak = true
				bitmap[mi/8] |= 1 << (mi % 8)
				fi := 0
				for c := taint.OptClass(0); int(c) < taint.NumOptClasses; c++ {
					if res.classes&(1<<c) == 0 {
						continue
					}
					cellsPerClass[c]++
					if _, seen := firsts[c]; !seen {
						ev := res.first[fi]
						firsts[c] = FirstEvent{
							Mask:    uint16(mask),
							MaskStr: mask.String(),
							Variant: v.Name,
							Cycle:   ev.Cycle,
							PC:      ev.PC,
							Labels:  ev.Labels,
							Detail:  ev.Detail,
						}
					}
					fi++
				}
				if v.Name == variants[0].Name && mask == 0 {
					kr.BaselineVerdict = "leaks"
				}
			}
			vr.LeakMask = fmt.Sprintf("%x", bitmap)
			kr.Variants = append(kr.Variants, vr)
		}
		if kr.BaselineVerdict == "" {
			kr.BaselineVerdict = "clean"
		}
		kr.Verdict = "clean"
		if anyLeak {
			kr.Verdict = "leaks"
		}
		var classes []taint.OptClass
		for c := range cellsPerClass {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		for _, c := range classes {
			kr.Classes = append(kr.Classes, ClassReport{
				Class:  c.String(),
				MLDRef: c.MLDRef(),
				Cells:  cellsPerClass[c],
				First:  firsts[c],
			})
		}
		rep.Kernels = append(rep.Kernels, kr)
	}
	return rep, nil
}

// runCell scans one kernel under one mask on one cache variant, on sc.
// The recorder retains no events: the cell needs only the classes present
// and their first events, which it keeps at any limit.
func runCell(ctx context.Context, sc *core.ScanContext, k Kernel, v diffcheck.CacheVariant, mask diffcheck.ToggleMask) (cellResult, error) {
	st, err := run(ctx, sc, k, diffcheck.PipeConfig(mask), v.Config, v.Stride, 0)
	if err != nil {
		return cellResult{}, fmt.Errorf("%s/%s/mask %#x: %w", k.Name, v.Name, uint16(mask), err)
	}
	var res cellResult
	for c := taint.OptClass(0); int(c) < taint.NumOptClasses; c++ {
		if st.Rec.CountOf(c) == 0 {
			continue
		}
		ev := st.Rec.First[c]
		res.classes |= 1 << c
		res.first = append(res.first, cellEvent{
			Cycle:  ev.Cycle,
			PC:     ev.PC,
			Labels: st.Names.Names(ev.Labels),
			Detail: ev.Detail,
		})
	}
	return res, nil
}

// selectVariants resolves variant names against diffcheck.CacheVariants,
// in the harness order. Empty means all.
func selectVariants(names []string) ([]diffcheck.CacheVariant, error) {
	all := diffcheck.CacheVariants()
	if len(names) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []diffcheck.CacheVariant
	for _, v := range all {
		if want[v.Name] {
			out = append(out, v)
			delete(want, v.Name)
		}
	}
	if len(want) > 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		var have []string
		for _, v := range all {
			have = append(have, v.Name)
		}
		return nil, fmt.Errorf("kernels: unknown cache variant(s) %s (want %s)",
			strings.Join(missing, ", "), strings.Join(have, ", "))
	}
	return out, nil
}

// ValidateVariants checks a cache-variant name list against the
// diffcheck harness, returning harness order (empty = every variant) so
// equivalent requests canonicalize identically — the variant-side twin
// of ValidateNames.
func ValidateVariants(names []string) ([]string, error) {
	vs, err := selectVariants(names)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out, nil
}

// Marshal renders the report deterministically (struct field order,
// two-space indent, trailing newline) — the committed golden form.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Format renders the human-readable Table-I-extension text.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Leakage-contract enumeration: %d kernels × %d masks × %d cache variants\n",
		len(r.Kernels), r.Masks, len(r.Variants))
	fmt.Fprintf(&b, "Base contract: memory-access addresses and branch predicates observable.\n\n")
	for _, k := range r.Kernels {
		design := "constant-time"
		if !k.ConstantTime {
			design = "deliberately non-ct"
		}
		fmt.Fprintf(&b, "%s — %s\n", k.Kernel, k.Title)
		fmt.Fprintf(&b, "  design: %s   baseline: %s   overall: %s\n", design, k.BaselineVerdict, k.Verdict)
		for _, v := range k.Variants {
			fmt.Fprintf(&b, "  %-16s clean %3d / leaking %3d of %d masks\n", v.Variant, v.Clean, v.Leaking, r.Masks)
		}
		if len(k.Classes) > 0 {
			fmt.Fprintf(&b, "  leak classes:\n")
			for _, c := range k.Classes {
				fmt.Fprintf(&b, "    %-22s mld=%-20s cells=%4d  first: variant=%s mask=%s",
					c.Class, c.MLDRef, c.Cells, c.First.Variant, c.First.MaskStr)
				if c.First.Cycle >= 0 {
					fmt.Fprintf(&b, " cycle=%d pc=%d", c.First.Cycle, c.First.PC)
				}
				if len(c.First.Labels) > 0 {
					fmt.Fprintf(&b, " labels=%s", strings.Join(c.First.Labels, "+"))
				}
				fmt.Fprintf(&b, "\n")
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
