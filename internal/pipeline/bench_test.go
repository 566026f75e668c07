package pipeline

import (
	"math"
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

// BenchmarkIssueWakeup times one issue pass's candidate selection over a
// full IQ: the event-driven readyW walk against the reference linear scan
// that re-tests srcReady for every dispatched µop. The 64-slot ROB holds
// 32 dispatched µops, 7 of them ready — about the shape the cycle loop
// sees (a full IQ, a handful of issuable µops). The ready µops are stuck,
// so issueOne returns at once and both variants time selection alone.
func BenchmarkIssueWakeup(b *testing.B) {
	setup := func(b *testing.B) *Machine {
		b.Helper()
		m := benchMachine(b, DefaultConfig())
		m.prepareProgram(asm.MustAssemble(allocKernel))
		var producer *uop
		for i := 0; i < m.cfg.ROBSize; i++ {
			u := m.allocUop()
			u.t = &m.tmpl[0]
			u.seq = uint64(i + 1)
			m.robPush(u)
			switch {
			case i%2 == 1:
				u.stage = stExecuting
				u.doneC = math.MaxInt64
				m.markExecuting(u)
				if producer == nil {
					producer = u
				}
			case i%10 == 0:
				u.stage = stDispatched
				u.stuck = true
				m.markDispatched(u)
				m.subscribe(u)
			default:
				u.stage = stDispatched
				u.prod[0] = producer // executing: not ready
				m.markDispatched(u)
				m.subscribe(u)
			}
		}
		return m
	}
	b.Run("readyW", func(b *testing.B) {
		m := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.issueReady(&issuePass{})
		}
	})
	b.Run("linear", func(b *testing.B) {
		m := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.issueLinear(&issuePass{})
		}
	})
}

// BenchmarkSnapshotRestore measures a metrics-registry snapshot and
// delta, what a caller reading per-run counters pays, and the
// oracle-memory restore (CloneInto), the fixed cost bounding how cheap a
// short Run can be.
func BenchmarkSnapshotRestore(b *testing.B) {
	b.Run("registry", func(b *testing.B) {
		reg := benchMachine(b, DefaultConfig()).Metrics()
		var start, end, diff obs.Snapshot
		reg.SnapshotInto(&start)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.SnapshotInto(&end)
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
