// Quickstart: assemble a small program, run it on the cycle-level
// out-of-order core, and watch a microarchitectural optimization turn a
// secret operand value into a timing difference.
package main

import (
	"fmt"
	"log"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
	"pandora/internal/uopt"
)

func run(cfg pipeline.Config, secret int64) (int64, error) {
	src := fmt.Sprintf(`
		addi x1, x0, %d      # "secret" multiplier operand
		addi x2, x0, 12345
		addi x5, x0, 64
	loop:
		mul  x3, x1, x2      # constant-time on a plain multiplier...
		mul  x3, x1, x3
		addi x5, x5, -1
		bne  x5, x0, loop
		halt
	`, secret)
	m, err := pipeline.New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		return 0, err
	}
	res, err := m.Run(asm.MustAssemble(src))
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

func main() {
	baseline := pipeline.DefaultConfig()

	zeroSkip := pipeline.DefaultConfig()
	zeroSkip.Simplifier = uopt.Simplifier{ZeroSkipMul: true}

	fmt.Println("quickstart: the same program, two secrets, two machines")
	fmt.Println()
	for _, secret := range []int64{0, 3} {
		b, err := run(baseline, secret)
		if err != nil {
			log.Fatal(err)
		}
		z, err := run(zeroSkip, secret)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  secret=%d   baseline: %4d cycles   zero-skip multiplier: %4d cycles\n", secret, b, z)
	}
	fmt.Println()
	fmt.Println("On the baseline the cycle counts match: multiplier operands are safe.")
	fmt.Println("With the zero-skip multiplier (computation simplification), the secret")
	fmt.Println("is visible in time — the Table I transition S → U, live.")
}
