package mld

// This file defines the descriptor behind the constant-time baseline
// contract the kernel-library checker (internal/kernels) enforces: the
// attacker observes the cache state left by every demand access, so a
// secret-dependent access address is a leak on any machine, before a
// single optimization is enabled. Barthe et al. ("Testing side-channel
// security of cryptographic implementations against future
// microarchitectures") call this the ct base contract; the optimization
// descriptors in examples.go and speculation.go are its extensions.

// CacheAddress is the demand-access cache descriptor: the observable
// outcome of a load or store is the cache MLD of its address — 0 on a
// hit, set(addr)+1 on a miss — so two secrets that map the access to
// different sets (or one to a hit and one to a miss) are
// distinguishable by a prime-and-probe attacker.
func CacheAddress() *Descriptor {
	return &Descriptor{
		Name:  "cache_address",
		Class: "baseline cache",
		Params: []Param{
			{Name: "i1", Kind: KindInst},     // the demand load/store
			{Name: "cache", Kind: KindUarch}, // cache state it perturbs
		},
		Eval: func(a Assignment) uint64 {
			i1 := a["i1"].(Inst)
			c := a["cache"].(*CacheState)
			return c.MLDOutcome(i1.Addr)
		},
	}
}
