package attack

import (
	"fmt"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
	"pandora/internal/uopt"
)

// Covert channels (Section II): two cooperating programs communicate
// through an optimization's hardware resource usage. These constructions
// demonstrate that every stateful optimization the paper studies carries
// a covert channel even with no victim involved — the sender modulates
// persistent state (memory contents, a memoization table), the receiver
// reads it back as time.

// SilentStoreChannel transmits bits through the silent-store check: the
// sender stores one of two values to a shared location; the receiver
// stores a known value and observes whether its store was silent.
type SilentStoreChannel struct {
	machine *pipeline.Machine
	// shared is the dead-drop location.
	shared uint64
	// markOne is the value meaning bit=1 (the receiver's probe value).
	markOne uint64

	threshold int64
}

// NewSilentStoreChannel builds sender and receiver on one machine (the
// shared-memory covert setting).
func NewSilentStoreChannel() (*SilentStoreChannel, error) {
	cfg := pipeline.DefaultConfig()
	cfg.SilentStores = pipeline.SilentStoreConfig{Scheme: pipeline.SSReadPortStealing}
	cfg.SQSize = 5
	hcfg := cache.DefaultHierConfig()
	hcfg.L1.Ways = 1
	m := mem.New()
	h, err := cache.NewHierarchy(hcfg)
	if err != nil {
		return nil, err
	}
	mach, err := pipeline.New(cfg, m, h)
	if err != nil {
		return nil, err
	}
	c := &SilentStoreChannel{
		machine: mach,
		shared:  0x800,
		markOne: 0x1111,
	}
	m.Write(0x4040, 8, c.shared+0x4000) // delay cell for the amplifier
	return c, nil
}

// kernel builds the store-with-amplifier program used by both ends.
func (c *SilentStoreChannel) kernel(value uint64) string {
	return fmt.Sprintf(`
		addi x1, x0, %d       # &delay cell
		addi x3, x0, %d       # &shared
		addi x6, x0, %d       # value
		ld   x4, 0(x1)
		ld   x5, 0(x4)
		ld   x7, 0x4000(x4)
		ld   x8, 0x8000(x4)
		ld   x9, 0xc000(x4)
		ld   x10, 0x10000(x4)
		ld   x11, 0x14000(x4)
		ld   x12, 0x18000(x4)
		ld   x13, 0x1c000(x4)
		sd   x6, 0(x3)
		halt
	`, 0x4040, c.shared, value)
}

func (c *SilentStoreChannel) resetLines() {
	c.machine.Hierarchy().EvictAll(0x4040)
	for n := 1; n <= 8; n++ {
		c.machine.Hierarchy().EvictAll(c.shared + uint64(n)*0x4000)
	}
	// The shared line itself must be present for the check to win.
	c.machine.Hierarchy().Access(c.shared, 0, false)
}

// run executes one store kernel and returns its cycles.
func (c *SilentStoreChannel) run(value uint64) (int64, error) {
	c.resetLines()
	res, err := c.machine.Run(asm.MustAssemble(c.kernel(value)))
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// Calibrate fixes the silent/non-silent threshold.
func (c *SilentStoreChannel) Calibrate() error {
	if _, err := c.run(c.markOne); err != nil {
		return err
	}
	silent, err := c.run(c.markOne)
	if err != nil {
		return err
	}
	nonSilent, err := c.run(c.markOne ^ 0xffff)
	if err != nil {
		return err
	}
	if nonSilent-silent < 16 {
		return fmt.Errorf("attack: covert channel calibration gap too small (%d vs %d)", silent, nonSilent)
	}
	c.threshold = (silent + nonSilent) / 2
	return nil
}

// Send transmits one bit: the sender leaves markOne for 1, anything else
// for 0.
func (c *SilentStoreChannel) Send(bit bool) error {
	v := c.markOne ^ 0xffff
	if bit {
		v = c.markOne
	}
	_, err := c.run(v)
	return err
}

// Receive reads one bit (destructively: the probe overwrites the drop)
// and the probe's cycle count.
func (c *SilentStoreChannel) Receive() (bool, int64, error) {
	cyc, err := c.run(c.markOne)
	if err != nil {
		return false, 0, err
	}
	return cyc < c.threshold, cyc, nil
}

// TransmitByte sends and receives 8 bits (LSB first), returning the
// received byte and total simulated cycles consumed.
func (c *SilentStoreChannel) TransmitByte(b byte) (byte, int64, error) {
	if c.threshold == 0 {
		if err := c.Calibrate(); err != nil {
			return 0, 0, err
		}
	}
	var got byte
	var cycles int64
	for i := 0; i < 8; i++ {
		if err := c.Send(b>>i&1 == 1); err != nil {
			return 0, 0, err
		}
		bit, cyc, err := c.Receive()
		if err != nil {
			return 0, 0, err
		}
		cycles += cyc
		if bit {
			got |= 1 << i
		}
	}
	return got, cycles, nil
}

// ReuseChannel transmits bits through the Sv computation-reuse buffer:
// the sender executes a multiply whose operand encodes the bit; the
// receiver executes the same static multiply with the bit=1 operand and
// times it — a memoization hit skips the multiplier. The channel needs no
// shared memory at all — the reuse buffer is the medium (the paper's
// footnote 5 observation that the table can be poisoned to transmit).
type ReuseChannel struct {
	machine *pipeline.Machine
	cfg     pipeline.Config
	markOne uint64

	threshold int64
}

// NewReuseChannel builds the channel.
func NewReuseChannel() (*ReuseChannel, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Reuse = uopt.SchemeSv
	mach, err := pipeline.New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		return nil, err
	}
	return &ReuseChannel{machine: mach, cfg: cfg, markOne: 123457}, nil
}

// kernel executes a dependent chain of multiplies at fixed PCs (the
// channel's "frequency"); hits collapse the chain's latency.
func (c *ReuseChannel) kernel(operand uint64) string {
	return fmt.Sprintf(`
		addi x1, x0, %d
		addi x2, x0, 77
		mul  x3, x1, x2     # the modulated instructions: hit iff the
		mul  x4, x3, x2     # table holds this operand chain
		mul  x5, x4, x2
		mul  x6, x5, x2
		halt
	`, operand)
}

func (c *ReuseChannel) run(operand uint64) (int64, error) {
	res, err := c.machine.Run(asm.MustAssemble(c.kernel(operand)))
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// UseScheme resets the channel under another reuse-buffer keying
// discipline (for the Sn ablation), clearing the table and calibration.
func (c *ReuseChannel) UseScheme(s uopt.ReuseScheme) error {
	c.cfg.Reuse = s
	c.threshold = 0
	return c.reset()
}

// reset returns the machine, and with it the reuse buffer, to power-on.
func (c *ReuseChannel) reset() error {
	return c.machine.Reset(c.cfg, c.machine.Memory(), c.machine.Hierarchy())
}

// Calibrate fixes the hit/miss timing threshold.
func (c *ReuseChannel) Calibrate() error {
	if _, err := c.run(c.markOne); err != nil {
		return err
	}
	hit, err := c.run(c.markOne) // identical back-to-back: all hits
	if err != nil {
		return err
	}
	if _, err := c.run(c.markOne ^ 1); err != nil {
		return err
	}
	miss, err := c.run(c.markOne) // table holds the other operand: misses
	if err != nil {
		return err
	}
	if miss-hit < 2 {
		return fmt.Errorf("attack: reuse channel calibration gap too small (%d vs %d)", hit, miss)
	}
	c.threshold = (hit + miss) / 2
	// The calibration probe itself re-primed the table; clear it so the
	// first Send starts clean.
	return c.reset()
}

// Send encodes a bit into the memoization table.
func (c *ReuseChannel) Send(bit bool) error {
	v := c.markOne ^ 1
	if bit {
		v = c.markOne
	}
	_, err := c.run(v)
	return err
}

// Receive decodes one bit from the probe's cycle count.
func (c *ReuseChannel) Receive() (bool, error) {
	cyc, err := c.run(c.markOne)
	if err != nil {
		return false, err
	}
	return cyc < c.threshold, nil
}

// TransmitByte sends and receives 8 bits (LSB first).
func (c *ReuseChannel) TransmitByte(b byte) (byte, error) {
	if c.threshold == 0 {
		if err := c.Calibrate(); err != nil {
			return 0, err
		}
	}
	var got byte
	for i := 0; i < 8; i++ {
		if err := c.Send(b>>i&1 == 1); err != nil {
			return 0, err
		}
		bit, err := c.Receive()
		if err != nil {
			return 0, err
		}
		if bit {
			got |= 1 << i
		}
	}
	return got, nil
}
