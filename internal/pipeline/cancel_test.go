package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/isa"
	"pandora/internal/mem"
)

// longProgram builds a straight-line program long enough that a run
// spans many cancellation checkpoints.
func longProgram(t *testing.T, n int) isa.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString("addi x1, x0, 1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "add x2, x2, x1\n")
	}
	b.WriteString("halt\n")
	prog, err := asm.Assemble(b.String())
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog
}

func TestCancelFlagStopsRun(t *testing.T) {
	cfg := DefaultConfig()
	flag := &CancelFlag{}
	cfg.Cancel = flag
	m := MustNew(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))

	// A pre-raised flag aborts within the first checkpoint interval.
	flag.Cancel()
	res, err := m.Run(longProgram(t, 20000))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run returned %v, want ErrCancelled", err)
	}
	if res.Cycles > 2*cancelCheckInterval {
		t.Fatalf("cancelled run still burned %d cycles (checkpoint every %d)", res.Cycles, cancelCheckInterval)
	}
}

func TestNilCancelRunsToCompletion(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNew(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if _, err := m.Run(longProgram(t, 100)); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMachineReusableAfterCancel(t *testing.T) {
	// A cancelled run must not poison the machine: the in-flight µops are
	// reclaimed at the top of the next Run and a fresh program completes.
	cfg := DefaultConfig()
	flag := &CancelFlag{}
	cfg.Cancel = flag
	m := MustNew(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	flag.Cancel()
	if _, err := m.Run(longProgram(t, 20000)); !errors.Is(err, ErrCancelled) {
		t.Fatalf("first run: %v, want ErrCancelled", err)
	}
	flag.v.Store(false)
	res, err := m.Run(longProgram(t, 100))
	if err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
	if res.Retired == 0 {
		t.Fatalf("run after cancel retired nothing")
	}
}

func TestCancelFromContext(t *testing.T) {
	// Background (never cancellable) must yield a nil flag — the zero-cost
	// path the allocation tests pin.
	if f, stop := CancelFromContext(context.Background()); f != nil {
		t.Fatalf("CancelFromContext(Background) = %v, want nil flag", f)
	} else {
		stop()
	}

	ctx, cancel := context.WithCancel(context.Background())
	f, stop := CancelFromContext(ctx)
	defer stop()
	if f == nil {
		t.Fatalf("CancelFromContext(cancellable) returned nil flag")
	}
	if f.Cancelled() {
		t.Fatalf("flag raised before ctx cancellation")
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for !f.Cancelled() {
		if time.Now().After(deadline) {
			t.Fatalf("flag not raised after ctx cancellation")
		}
		time.Sleep(time.Millisecond)
	}

	// A ctx already done yields a flag already raised.
	if f, stop := CancelFromContext(ctx); !f.Cancelled() {
		t.Fatal("CancelFromContext(cancelled ctx) returned a lowered flag")
	} else {
		stop()
	}
}

func TestCancelMidRun(t *testing.T) {
	// Cancellation raised from another goroutine while the loop is running
	// stops a program that would otherwise run ~1e6 instructions.
	cfg := DefaultConfig()
	flag := &CancelFlag{}
	cfg.Cancel = flag
	m := MustNew(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))

	// A tight backward loop: x1 counts down from a large value.
	prog, err := asm.Assemble(`
		addi x1, x0, 2047
		slli x1, x1, 12
	loop:
		addi x1, x1, -1
		bne  x1, x0, loop
		halt
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	done := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		flag.Cancel()
		close(done)
	}()
	_, err = m.Run(prog)
	<-done
	if err != nil && !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run: %v, want nil (finished first) or ErrCancelled", err)
	}
}
