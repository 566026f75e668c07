package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// pipeviewMarks is the pipeview marker for each kind it draws (0: not
// drawn). SS-Load issue is the one uopt activation with a marker.
var pipeviewMarks = [256]byte{
	KindRename: 'D', KindIssue: 'I', KindSSLoadReturn: 'r', KindSQHead: 'q',
	KindDequeue: 'q', KindSquash: 'x', KindRetire: 'R',
}

// WritePipeview draws the trace as a per-µop pipeline diagram in the
// style of gem5's O3 pipeview: one row per dynamic instruction, columns
// are cycles, with markers for rename/dispatch (D), issue (I), SS-Load
// issue and return (s/r), store-queue head and dequeue (q), squash (x)
// and retire (R). label names the instruction at a PC, so the exporter
// needs no ISA knowledge. At most maxCols columns are drawn (<= 0 means
// 96); longer runs fold several cycles into one column. Deterministic
// for a given event sequence.
func (t *Trace) WritePipeview(w io.Writer, maxCols int, label func(pc int64) string) error {
	if maxCols <= 0 {
		maxCols = 96
	}

	type row struct {
		pc          int64
		marks       map[int64]byte
		first, last int64
	}
	rows := map[uint64]*row{}
	var order []uint64
	var minC, maxC int64 = 1<<62 - 1, 0

	for _, e := range t.Events {
		m := pipeviewMarks[e.Kind]
		if e.Kind == KindUopt && e.Detail == "ss-load" {
			m = 's'
		}
		if m == 0 {
			continue
		}
		r := rows[e.Seq]
		if r == nil {
			r = &row{pc: e.PC, marks: map[int64]byte{}, first: e.Cycle, last: e.Cycle}
			rows[e.Seq] = r
			order = append(order, e.Seq)
		}
		// First marker wins within a cycle, except retire/squash which
		// always show.
		if _, busy := r.marks[e.Cycle]; !busy || m == 'R' || m == 'x' {
			r.marks[e.Cycle] = m
		}
		r.first = min(r.first, e.Cycle)
		r.last = max(r.last, e.Cycle)
		minC = min(minC, e.Cycle)
		maxC = max(maxC, e.Cycle)
	}
	if len(order) == 0 {
		_, err := fmt.Fprintln(w, "pipeview: no events")
		return err
	}

	span := maxC - minC + 1
	scale := int64(1)
	if span > int64(maxCols) {
		scale = (span + int64(maxCols) - 1) / int64(maxCols)
	}

	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "pipeview: cycles %d..%d (1 column = %d cycle(s))\n", minC, maxC, scale)
	bw.WriteString("D dispatch  I issue  s ss-load  r ss-return  q sq-dequeue  x squash  R retire\n\n")
	width := int((maxC-minC)/scale) + 1
	line := make([]byte, width)
	for _, seq := range order {
		r := rows[seq]
		for i := range line {
			line[i] = ' '
		}
		// Walk cycles in order so that, when several fold into one
		// column, the latest marker wins deterministically.
		for c := r.first; c <= r.last; c++ {
			i := int((c - minC) / scale)
			if m, ok := r.marks[c]; ok {
				line[i] = m
			} else if line[i] == ' ' {
				line[i] = '.'
			}
		}
		fmt.Fprintf(bw, "#%-4d pc=%-4d |%s| %s\n", seq, r.pc, line, label(r.pc))
	}
	return bw.Flush()
}
