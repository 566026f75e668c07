// Package pandora_test holds micro-benchmarks of the substrates the
// reproduction is built on and of the attackers' online loops. The paper
// artifacts themselves are timed end to end by the bench/ harness's
// suite workload, which runs every registered experiment.
//
// Run with: go test -bench=. -benchmem
package pandora_test

import (
	"math/rand"
	"testing"

	"pandora/internal/asm"
	"pandora/internal/attack"
	"pandora/internal/bsaes"
	"pandora/internal/cache"
	"pandora/internal/channel"
	"pandora/internal/dmp"
	"pandora/internal/ebpf"
	"pandora/internal/leakage"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
)

// --- Attack-rate benchmarks (how fast the attacker's online loop runs) ---

// BenchmarkBSAESOnlineAttempt measures one silent-store probe (victim
// call + instrumented attacker call). The paper's worst case is 524288
// such attempts.
func BenchmarkBSAESOnlineAttempt(b *testing.B) {
	var vk, vp, ak [16]byte
	rng := rand.New(rand.NewSource(1))
	rng.Read(vk[:])
	rng.Read(vp[:])
	rng.Read(ak[:])
	a, err := attack.NewBSAESAttack(attack.DefaultBSAESConfig(), vk, vp, ak)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := a.Calibrate(); err != nil {
		b.Fatal(err)
	}
	truth := a.VictimSlices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate hit/miss probes.
		v := truth[0] ^ uint16(i&1)
		if _, _, err := a.RecoverSliceDirect(0, []uint16{v}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkURGLeakByte measures leaking one protected byte (replays,
// priming, sandbox run and probing included).
func BenchmarkURGLeakByte(b *testing.B) {
	u, err := attack.NewURG(attack.DefaultURGConfig(), []byte{0x42})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.LeakByte(0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkPipelineLoop(b *testing.B) {
	prog := asm.MustAssemble(`
		addi x1, x0, 1000
		addi x2, x0, 0
	loop:
		add  x2, x2, x1
		addi x1, x1, -1
		bne  x1, x0, loop
		halt
	`)
	m, err := pipeline.New(pipeline.DefaultConfig(), mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(3003)/float64(cycles), "IPC")
}

func BenchmarkBSAESEncrypt(b *testing.B) {
	key := make([]byte, 16)
	pt := make([]byte, 16)
	for i := 0; i < b.N; i++ {
		if _, err := bsaes.Encrypt(pt, key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeakageAnalyzer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := leakage.NewAnalyzer().TableI()
		if len(tbl) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkVerifier(b *testing.B) {
	env := &ebpf.Env{Maps: []ebpf.Map{
		{Name: "Z", ElemSize: 8, NElems: 24, Base: 0x10000},
		{Name: "Y", ElemSize: 1, NElems: 4096, Base: 0x100000},
		{Name: "X", ElemSize: 64, NElems: 256, Base: 0x200000},
	}}
	prog := ebpf.Figure7Program(0, 1, 2, 24, 8, 1, 1)
	for i := 0; i < b.N; i++ {
		if err := ebpf.Verify(prog, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJIT(b *testing.B) {
	env := &ebpf.Env{Maps: []ebpf.Map{
		{Name: "Z", ElemSize: 8, NElems: 24, Base: 0x10000},
		{Name: "Y", ElemSize: 1, NElems: 4096, Base: 0x100000},
		{Name: "X", ElemSize: 64, NElems: 256, Base: 0x200000},
	}}
	prog := ebpf.Figure7Program(0, 1, 2, 24, 8, 1, 1)
	for i := 0; i < b.N; i++ {
		if _, err := ebpf.Compile(prog, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrimeProbeRound(b *testing.B) {
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	pp, err := channel.NewPrimeProbe(h, channel.L2, 0x10000000)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pp.PrimeAll()
		h.Access(0x200000+uint64(i%256)*64, 0, false)
		if hot := channel.HotSets(pp.ProbeAll()); len(hot) != 1 {
			b.Fatalf("hot = %v", hot)
		}
	}
}

func BenchmarkIMPTrainAndChase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mem.New()
		zb, yb := uint64(0x1000), uint64(0x40000)
		vals := []uint64{5, 150, 9, 277, 23, 361, 130, 490, 31, 170, 402, 44}
		for j, v := range vals {
			m.Write(zb+uint64(j*4), 4, v)
			m.Write(yb+v*4, 4, v+100)
		}
		h := cache.MustNewHierarchy(cache.DefaultHierConfig())
		p := dmp.New(dmp.DefaultConfig(dmp.ThreeLevel), h, m)
		h.AddListener(p)
		for j := 0; j < len(vals); j++ {
			za := zb + uint64(j*4)
			z := m.Read(za, 4)
			h.Access(za, z, false)
			ya := yb + z*4
			y := m.Read(ya, 4)
			h.Access(ya, y, false)
			h.Access(0x80000+y*4, 0, false)
		}
		if l1, _ := p.Confirmed(); !l1 {
			b.Fatal("IMP did not train")
		}
	}
}

// BenchmarkSilentStoreCovertBit measures the raw silent-store covert
// channel bit rate.
func BenchmarkSilentStoreCovertBit(b *testing.B) {
	c, err := attack.NewSilentStoreChannel()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := c.TransmitByte(0xAA); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(i&1 == 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Receive(); err != nil {
			b.Fatal(err)
		}
	}
}
