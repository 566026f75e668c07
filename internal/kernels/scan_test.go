package kernels

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"pandora/internal/core"
	"pandora/internal/diffcheck"
	"pandora/internal/obs"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
)

// sourceScanDigests pins, by SHA-256, the JSON of core.ScanSource on every
// kernel's source (its `.secret` directives, no Setup, no Check) under the
// machine specs of masks 0, 0x0aa and AllMasks-1. These are the scans a
// serve job with a source file runs.
var sourceScanDigests = map[string][3]string{
	"chacha20-qr": {
		"d1ae01841160196a623a7dfb6267179cdd27fc83262ec5f207b7a2b15087fef3",
		"824051041c975eec183e3e6091b82dc79f8e97470bd85babcdb2c487b1009227",
		"fadef2b21acc2f4b2785987c3799325486b5fb08299555f07acf2f9089a94c9d",
	},
	"poly1305-acc": {
		"0ad95625f8a95ba8928004ac80900bf72c2bfacb45fd03085f73f18a0055abe1",
		"4e9f968fb3b277cef5f1a8519d76c50520d4ea9a218860d419e2143b59def543",
		"f79ff36ff4bb0d3a0900d781b98da63b4e3e1518fcb7a5fed2e7f52511e03311",
	},
	"bsaes-sbox": {
		"d1ae01841160196a623a7dfb6267179cdd27fc83262ec5f207b7a2b15087fef3",
		"03b128186f00c4d53dc7a949e2bfaf48f19fa46fdfd9f9e16bd66429ebdefefb",
		"31d33a215d3ff5ae9383ac5718006cc4fd73c7025c6c0ba97cd0c41d4bb40cb7",
	},
	"aes-ttable": {
		"d1ae01841160196a623a7dfb6267179cdd27fc83262ec5f207b7a2b15087fef3",
		"564fe92d272c4d37c86efc7003373d9efb94547dc7a9e5ee5009ead4fd6928f8",
		"58a28061964a7b3f16e1d0c9e834ec1e028a1e4dbd19f47642129351d6032b8d",
	},
	"montladder-cswap": {
		"94744d5cbfd4f17767da8cfc45b97678350b7ed27e56d674da1455668889a6af",
		"6f418fc4c01b0560de165f8a40b1a172b3f9a4f36694b6bf887d5c2c06fa82ec",
		"0cddba9fe1d49d8e8554a3b3ad702d6de47b3017fb2df2981f6f31bcc0fd7419",
	},
}

// sourceScanMasks are the toggle masks whose machine specs the source
// scans run under: none, alternate toggles, and all of them.
var sourceScanMasks = [3]diffcheck.ToggleMask{0, 0x0aa, diffcheck.AllMasks - 1}

// TestSourceScansPinned scans every kernel's source on the three pinned
// machine specs and compares each summary's JSON with its pinned digest.
func TestSourceScansPinned(t *testing.T) {
	if len(sourceScanDigests) != len(Kernels()) {
		t.Errorf("%d kernels, %d pinned", len(Kernels()), len(sourceScanDigests))
	}
	for _, k := range Kernels() {
		for i, mask := range sourceScanMasks {
			spec := core.FormatMachineSpec(diffcheck.PipeConfig(mask))
			sum, err := core.ScanSource(context.Background(), k.Source, spec, nil)
			if err != nil {
				t.Fatalf("%s [%s]: %v", k.Name, spec, err)
			}
			b, err := json.Marshal(sum)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(b)
			if got, want := hex.EncodeToString(h[:]), sourceScanDigests[k.Name][i]; got != want {
				t.Errorf("%s [%s]: scan JSON digest %s, want %s", k.Name, spec, got, want)
			}
		}
	}
}

// TestPooledScansIsolated: a kernels.Run on the shared pool of scan
// contexts reports what a scan on a new simulator and a new taint state
// does, whatever ran on the context before. Every kernel × cache variant
// × eight seeded masks, from four concurrent callers; consecutive scans
// on one caller are of kernels with different secret sets, and between
// them run traced scans (a probe attached) and scans cancelled
// mid-flight.
func TestPooledScansIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var masks [8]diffcheck.ToggleMask
	for i := range masks {
		masks[i] = diffcheck.ToggleMask(rng.Intn(diffcheck.AllMasks))
	}
	type cell struct {
		k    Kernel
		v    diffcheck.CacheVariant
		mask diffcheck.ToggleMask
		want []byte
	}
	var cells []cell
	for _, mask := range masks {
		for _, v := range diffcheck.CacheVariants() {
			for _, k := range Kernels() {
				cells = append(cells, cell{k, v, mask, freshScan(t, k, v, mask)})
			}
		}
	}
	pooled := func(c cell, probe obs.Probe) []byte {
		cfg := diffcheck.PipeConfig(c.mask)
		cfg.Probe = probe
		sum, err := Run(context.Background(), c.k, cfg, c.v.Config, c.v.Stride, c.mask.String())
		if err != nil {
			t.Errorf("%s/%s/mask %v: %v", c.k.Name, c.v.Name, c.mask, err)
		}
		b, _ := json.Marshal(sum)
		return b
	}
	// bsaes-sbox runs 1,329 cycles at mask 0 on default-lru: on a context
	// already cancelled it stops mid-flight, at the cycle loop's
	// cancellation checkpoint at cycle 1,024.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	bsaes, _ := KernelByName("bsaes-sbox")
	v0 := diffcheck.CacheVariants()[0]
	const callers = 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(cells); i += callers {
				cl := cells[i]
				switch i % 3 {
				case 1:
					trace := obs.NewTrace()
					if got := pooled(cl, trace); !bytes.Equal(got, cl.want) || trace.Len() == 0 {
						t.Errorf("%s/%s/mask %v traced: %d probe events, summary\n%s\nwant\n%s", cl.k.Name, cl.v.Name, cl.mask, trace.Len(), got, cl.want)
					}
				case 2:
					if _, err := Run(cancelled, bsaes, diffcheck.PipeConfig(0), v0.Config, v0.Stride, ""); !errors.Is(err, pipeline.ErrCancelled) {
						t.Errorf("cancelled scan: err %v, want %v", err, pipeline.ErrCancelled)
					}
				}
				if got := pooled(cl, nil); !bytes.Equal(got, cl.want) {
					t.Errorf("%s/%s/mask %v: pooled summary\n%s\nwant\n%s", cl.k.Name, cl.v.Name, cl.mask, got, cl.want)
				}
			}
		}(c)
	}
	wg.Wait()
}

// freshScan is kernels.Run's scan built from nothing: a new simulator and
// a new taint state. It returns the summary's JSON.
func freshScan(t *testing.T, k Kernel, v diffcheck.CacheVariant, mask diffcheck.ToggleMask) []byte {
	t.Helper()
	st := taint.NewState()
	st.ObserveAddrs = true
	cfg := diffcheck.PipeConfig(mask)
	cfg.Taint = st
	m, err := new(diffcheck.Sim).Boot(cfg, v, k.Setup)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range k.unit.Secrets {
		if _, err := st.DefineSecret(taint.Secret{Name: s.Name, Base: s.Base, Len: s.Len}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(k.unit.Prog); err != nil {
		t.Fatal(err)
	}
	if err := k.Check(m.Memory()); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(core.Summarize(st, k.Name, mask.String()))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// warmScan returns a kernels.Run of poly1305-acc on default-lru at mask 0,
// the scan BenchmarkScan times and TestWarmRunAllocs pins.
func warmScan(tb testing.TB) func() {
	k, _ := KernelByName("poly1305-acc")
	v := diffcheck.CacheVariants()[0]
	return func() {
		if _, err := Run(context.Background(), k, diffcheck.PipeConfig(0), v.Config, v.Stride, ""); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestWarmRunAllocs pins a kernels.Run on a warm pooled scan context. A
// run that builds its machine, memory, hierarchy and taint state makes
// 133 objects; a warm one makes 13: the memory pages Setup writes, the
// kernel's reference check and the summary.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its values under -race")
	}
	scan := warmScan(t)
	scan()
	if n := testing.AllocsPerRun(20, scan); n > 13 {
		t.Errorf("a warm kernels.Run allocates %v objects, want at most 13", n)
	}
}

// BenchmarkScan times a warm kernels.Run of poly1305-acc on default-lru at
// mask 0, a cell at the contract workload's median latency: the
// profiling entry point for the scan path (-cpuprofile, -memprofile).
func BenchmarkScan(b *testing.B) {
	scan := warmScan(b)
	scan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}
