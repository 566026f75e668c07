package pipeline

import (
	"testing"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/obs"
)

func benchMachine(b *testing.B, cfg Config) *Machine {
	b.Helper()
	m, err := New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return m
}

// benchRun measures whole-Run throughput of the allocKernel loop and
// reports simulated cycles per wall-clock second — the figure of merit
// of the cycles workload in `bash bench/run.sh` (see bench/README.md).
func benchRun(b *testing.B, cfg Config) {
	m := benchMachine(b, cfg)
	prog := asm.MustAssemble(allocKernel)
	if _, err := m.Run(prog); err != nil { // warm pools and caches
		b.Fatalf("Run: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(prog)
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkCycleLoop is the headline number: the bitset scheduler on the
// default configuration.
func BenchmarkCycleLoop(b *testing.B) {
	benchRun(b, DefaultConfig())
}

// BenchmarkCycleLoopLinear runs the same workload through the reference
// linear-walk candidate gatherer (Config.LinearScheduler) — the
// issue-wakeup comparison at machine scale.
func BenchmarkCycleLoopLinear(b *testing.B) {
	cfg := DefaultConfig()
	cfg.LinearScheduler = true
	benchRun(b, cfg)
}

// BenchmarkCycleLoopProbe measures the enabled-probe overhead: every
// pipeline/cache/µopt event flows through a counting probe.
func BenchmarkCycleLoopProbe(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Probe = &countProbe{}
	benchRun(b, cfg)
}

// BenchmarkFetchDecode measures prepareProgram — the per-Run decode into
// the µop template cache that replaced per-fetch ClassOf/Writes/Uses
// re-derivation.
func BenchmarkFetchDecode(b *testing.B) {
	m := benchMachine(b, DefaultConfig())
	prog := asm.MustAssemble(allocKernel)
	m.prepareProgram(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.prepareProgram(prog)
	}
}

// BenchmarkIssueWakeup compares one candidate-gather pass over a
// half-drained ROB: the bitset iteration against the linear stage scan it
// replaced. The ROB holds 8 dispatched µops out of 64 slots — the shape
// the cycle loop sees most (a mostly-empty window with a few waiters).
func BenchmarkIssueWakeup(b *testing.B) {
	setup := func(b *testing.B) *Machine {
		b.Helper()
		m := benchMachine(b, DefaultConfig())
		m.prepareProgram(asm.MustAssemble(allocKernel))
		for i := 0; i < m.cfg.ROBSize; i++ {
			u := m.allocUop()
			u.t = &m.tmpl[0]
			u.seq = uint64(i + 1)
			m.robPush(u)
			if i%8 == 0 {
				u.stage = stDispatched
				m.markDispatched(u)
			} else {
				u.stage = stExecuting
				m.markExecuting(u)
			}
		}
		return m
	}
	b.Run("bitset", func(b *testing.B) {
		m := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.issueScratch = m.gatherMasked(m.dispW, m.issueScratch[:0])
		}
	})
	b.Run("linear", func(b *testing.B) {
		m := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.issueScratch = m.gatherStage(stDispatched, m.issueScratch[:0])
		}
	})
}

// BenchmarkSnapshotRestore measures the per-Run counter bookkeeping:
// snapshotting the metrics registry and producing the run delta, plus the
// oracle-memory restore (CloneInto), the two fixed costs bounding how
// cheap a short Run can be.
func BenchmarkSnapshotRestore(b *testing.B) {
	b.Run("registry", func(b *testing.B) {
		m := benchMachine(b, DefaultConfig())
		var start, end, diff obs.Snapshot
		m.reg.SnapshotInto(&start)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.reg.SnapshotInto(&end)
			end.DeltaInto(start, &diff)
		}
	})
	b.Run("clone-into", func(b *testing.B) {
		src := mem.New()
		for i := uint64(0); i < 8; i++ {
			src.Write(i<<12, 8, i) // 8 pages
		}
		clone := src.Clone()
		clone.Write(0, 8, 99) // a private COW page to refresh
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.CloneInto(clone)
		}
	})
}
