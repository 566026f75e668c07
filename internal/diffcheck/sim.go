package diffcheck

import (
	"pandora/internal/cache"
	"pandora/internal/dmp"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
)

// Sim is one worker's simulator: a machine, a data memory and one cache
// hierarchy per geometry, reset to power-on before each run instead of
// rebuilt. The differential sweep keeps one per worker in a
// parallel.Pool; kernel and source-file taint scans run on one inside a
// core.ScanContext. The zero value is ready; its first Boot builds
// everything.
type Sim struct {
	m     pipeline.Machine
	mem   mem.Memory
	hiers map[cache.HierConfig]*cache.Hierarchy
}

// Boot returns s's machine at power-on under cfg, on s's memory emptied
// and then seeded by init (when non-nil) and on v's hierarchy, with the
// stride prefetcher attached when v asks for it. The machine starts from
// the state pipeline.New on a new memory and a new hierarchy would build,
// whatever s ran before.
func (s *Sim) Boot(cfg pipeline.Config, v CacheVariant, init func(*mem.Memory)) (*pipeline.Machine, error) {
	s.mem.Reset()
	if init != nil {
		init(&s.mem)
	}
	hier, err := s.hierarchy(v.Config)
	if err != nil {
		return nil, err
	}
	if v.Stride {
		hier.AddListener(dmp.NewStride(hier))
	}
	if err := s.m.Reset(cfg, &s.mem, hier); err != nil {
		return nil, err
	}
	return &s.m, nil
}

// hierarchy returns the power-on hierarchy for hcfg, built on first use
// and reset on every later one.
func (s *Sim) hierarchy(hcfg cache.HierConfig) (*cache.Hierarchy, error) {
	if h, ok := s.hiers[hcfg]; ok {
		h.Reset()
		return h, nil
	}
	h, err := cache.NewHierarchy(hcfg)
	if err != nil {
		return nil, err
	}
	if s.hiers == nil {
		s.hiers = make(map[cache.HierConfig]*cache.Hierarchy)
	}
	s.hiers[hcfg] = h
	return h, nil
}
