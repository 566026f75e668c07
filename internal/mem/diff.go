package mem

import "slices"

// Mismatch is one byte address at which two memories disagree.
type Mismatch struct {
	Addr uint64
	A, B byte
}

// zeroPage stands in for a page one memory has never allocated: unwritten
// bytes read as zero.
var zeroPage [pageSize]byte

// Diff compares two memories byte-wise over the union of their allocated
// pages, returning up to max mismatches in ascending address order (max <= 0
// means no limit). Never-written bytes read as zero, so a page allocated in
// one memory but not the other only counts where its contents are nonzero —
// sparse-allocation differences alone are not architectural differences.
//
// Pages are compared whole first, a missing page as the zero page; only
// pages that differ are walked byte by byte. Equal memories cost one array
// comparison per page and allocate nothing.
func Diff(a, b *Memory, max int) []Mismatch {
	var differ []uint64
	for pn, pa := range a.pages {
		pb := b.pages[pn]
		if pb == nil {
			pb = &zeroPage
		}
		if pa != pb && *pa != *pb {
			differ = append(differ, pn)
		}
	}
	for pn, pb := range b.pages {
		if _, ok := a.pages[pn]; !ok && *pb != zeroPage {
			differ = append(differ, pn)
		}
	}
	slices.Sort(differ)

	var out []Mismatch
	for _, pn := range differ {
		pa, pb := a.pages[pn], b.pages[pn]
		if pa == nil {
			pa = &zeroPage
		}
		if pb == nil {
			pb = &zeroPage
		}
		for i := range pageSize {
			if pa[i] != pb[i] {
				out = append(out, Mismatch{Addr: pn<<pageShift | uint64(i), A: pa[i], B: pb[i]})
				if max > 0 && len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}
