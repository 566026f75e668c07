package pipeline

import (
	"encoding/json"
	"fmt"

	"pandora/internal/cache"
	"pandora/internal/isa"
)

// This file is the supervision half of the fault layer. Every Run is
// supervised: when the machine stops making forward progress (livelock),
// violates an invariant, or exhausts its cycle budget, Run returns a
// StallError whose CoreDump records the pipeline state a human needs to
// diagnose the failure — occupancies, the oldest µop and why it is
// waiting, the store queue, the last retired µops, and the cache
// hierarchy's counters — serialized to JSON for artifact capture by
// campaign runners and CI.

// WatchdogWindow is the fixed forward-progress window: a clean program
// on the default core retires at least once every few hundred cycles (the
// worst single-µop latency is a divide behind two memory misses), so 20k
// cycles without a retire is unambiguous livelock. The exception is a
// store-queue drain that retirement waits on (see drainPending): the
// watchdog then holds off until a window has passed since a store last
// left the queue.
const WatchdogWindow = 20_000

// RetireHistory is the fixed number of retired µops the dump keeps.
const RetireHistory = 8

// retireRec is one entry of the machine's retire-history ring, recorded
// by value so retire never formats or allocates; coreDump renders it.
// The template (pc, instruction, class) stays valid for the whole Run.
type retireRec struct {
	t             *uopTemplate
	seq           uint64
	fetchC, doneC int64
}

// StallError reasons.
const (
	// ReasonWatchdog: WatchdogWindow cycles elapsed without
	// forward progress.
	ReasonWatchdog = "watchdog"
	// ReasonMaxCycles: the run exceeded Config.MaxCycles; Unwrap returns
	// the bare diagnostic.
	ReasonMaxCycles = "max-cycles"
	// ReasonPipelineError: a stage reported an error (invariant violation
	// or oracle mismatch), or the program was empty; Unwrap returns it.
	ReasonPipelineError = "pipeline-error"
)

// StallError is every failed Run but a cancelled one: why the supervisor
// intervened, the wrapped error if one triggered it, and the post-mortem
// CoreDump. Error returns the wrapped error's text unchanged.
type StallError struct {
	Reason string
	Cause  error // non-nil for ReasonPipelineError and ReasonMaxCycles
	Dump   *CoreDump
}

func (e *StallError) Error() string {
	if e.Cause != nil {
		return e.Cause.Error()
	}
	msg := fmt.Sprintf("pipeline: %s at cycle %d", e.Reason, e.Dump.Cycle)
	if e.Reason == ReasonWatchdog {
		msg = fmt.Sprintf("pipeline: watchdog: no µop retired in %d cycles at cycle %d",
			e.Dump.WatchdogWindow, e.Dump.Cycle)
	}
	if o := e.Dump.Oldest; o != nil && o.WaitReason != "" {
		msg += fmt.Sprintf(" (oldest µop #%d pc=%d %s: %s)", o.Seq, o.PC, o.Inst, o.WaitReason)
	}
	return msg
}

func (e *StallError) Unwrap() error { return e.Cause }

// Occupancy is a used/capacity pair for one pipeline structure.
type Occupancy struct {
	Used int `json:"used"`
	Size int `json:"size"`
}

// UopDump is one µop's state in a CoreDump.
type UopDump struct {
	Seq        uint64 `json:"seq"`
	PC         int64  `json:"pc"`
	Inst       string `json:"inst"`
	Class      string `json:"class"`
	Stage      string `json:"stage"`
	FetchCycle int64  `json:"fetch_cycle"`
	DoneCycle  int64  `json:"done_cycle,omitempty"`
	// WaitReason names the resource a non-done µop is stalled on
	// (operand producer, store queue, execution port, fence, dropped
	// wakeup) — the line a post-mortem reads first.
	WaitReason string `json:"wait_reason,omitempty"`
}

// SQDump is one store-queue slot in a CoreDump.
type SQDump struct {
	Seq          uint64 `json:"seq"`
	PC           int64  `json:"pc"`
	Addr         uint64 `json:"addr"`
	Width        int    `json:"width"`
	AddrReady    bool   `json:"addr_ready"`
	Retired      bool   `json:"retired"`
	Dequeuing    bool   `json:"dequeuing"`
	DequeueDoneC int64  `json:"dequeue_done_cycle,omitempty"`
}

// CacheDump snapshots the hierarchy's observable state (the model has no
// MSHRs — fills are latency-only — so the counters and the latched
// invariant error are the whole post-mortem surface).
type CacheDump struct {
	L1               cache.Stats `json:"l1"`
	L2               cache.Stats `json:"l2"`
	DemandAccesses   uint64      `json:"demand_accesses"`
	PrefetchRequests uint64      `json:"prefetch_requests"`
	InvariantError   string      `json:"invariant_error,omitempty"`
}

// CoreDump is the structured post-mortem of a supervised Run failure.
type CoreDump struct {
	Reason         string `json:"reason"`
	Cycle          int64  `json:"cycle"`
	WatchdogWindow int64  `json:"watchdog_window,omitempty"`

	ROB     Occupancy `json:"rob"`
	IQ      Occupancy `json:"iq"`
	LQ      Occupancy `json:"lq"`
	SQ      Occupancy `json:"sq"`
	PRFFree int       `json:"prf_free"`

	FetchBlocked     bool  `json:"fetch_blocked"`
	FetchResumeCycle int64 `json:"fetch_resume_cycle,omitempty"`

	// Oldest is the ROB head — the µop whose failure to retire stalls
	// everything behind it — with its wait reason resolved.
	Oldest *UopDump `json:"oldest,omitempty"`
	// ROBSample is the first few ROB entries in program order.
	ROBSample []UopDump `json:"rob_sample,omitempty"`
	// StoreQueue is the full store queue.
	StoreQueue []SQDump `json:"store_queue,omitempty"`
	// LastRetired is the most recent retirements, oldest first — what the
	// machine was doing before it stopped.
	LastRetired []UopDump `json:"last_retired,omitempty"`

	Cache *CacheDump `json:"cache,omitempty"`
	Stats Stats      `json:"stats"`
}

// JSON renders the dump for artifact files.
func (d *CoreDump) JSON() []byte {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil { // no unmarshalable fields exist; keep the API total
		return []byte(fmt.Sprintf("{%q:%q}", "marshal_error", err.Error()))
	}
	return b
}

func stageName(s uopStage) string {
	switch s {
	case stDispatched:
		return "dispatched"
	case stExecuting:
		return "executing"
	case stDone:
		return "done"
	case stRetired:
		return "retired"
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// uopDump renders one in-flight µop with its stall reason resolved.
func (m *Machine) uopDump(u *uop) UopDump {
	d := UopDump{
		Seq:        u.seq,
		PC:         u.pc,
		Inst:       u.inst.String(),
		Class:      u.class.String(),
		Stage:      stageName(u.stage),
		FetchCycle: u.fetchC,
	}
	if u.stage != stDispatched {
		d.DoneCycle = u.doneC
	}
	d.WaitReason = m.waitReason(u)
	return d
}

// waitReason explains why u has not retired yet, naming the stalled
// resource: the heart of the livelock post-mortem.
func (m *Machine) waitReason(u *uop) string {
	switch u.stage {
	case stExecuting:
		return fmt.Sprintf("executing, completes at cycle %d", u.doneC)
	case stDone:
		return "complete, waiting for in-order retire"
	case stRetired:
		return ""
	}
	// Dispatched and never issued — find out what issue is waiting on.
	if u.stuck {
		return "issue wakeup dropped (fault injection): permanently unscheduled"
	}
	if u.class == isa.ClassFence {
		if len(m.sq) > 0 {
			older, younger := 0, 0
			for _, e := range m.sq {
				if e.u.seq > u.seq {
					younger++
				} else {
					older++
				}
			}
			return fmt.Sprintf("fence waiting on store queue: %d older / %d younger store(s) occupy slots (head store #%d pc=%d)",
				older, younger, m.sq[0].u.seq, m.sq[0].u.pc)
		}
		if m.robN > 0 && m.robBuf[m.robHead] != u {
			return "fence waiting to reach ROB head"
		}
		return "fence ready to issue"
	}
	for i := 0; i < 2; i++ {
		if !u.srcReady(i, m.cycle) {
			p := u.prod[i]
			return fmt.Sprintf("waiting for operand %d from µop #%d (pc=%d, %s)",
				i, p.seq, p.pc, stageName(p.stage))
		}
	}
	// An uncompleted older fence blocks every memory operation.
	if u.class == isa.ClassLoad || u.class == isa.ClassStore {
		for i := 0; i < m.robN; i++ {
			v := m.robAt(i)
			if v.seq >= u.seq {
				break
			}
			if v.class == isa.ClassFence && v.stage != stDone && v.stage != stRetired {
				return fmt.Sprintf("waiting for fence #%d (pc=%d) to complete", v.seq, v.pc)
			}
		}
	}
	if u.class == isa.ClassLoad && m.firstUnresolvedStore() < u.seq {
		return "memory disambiguation: waiting for an older store's address"
	}
	return "ready, waiting for an execution port"
}

// coreDump snapshots the machine for a supervised failure.
func (m *Machine) coreDump(reason string) *CoreDump {
	d := &CoreDump{
		Reason:           reason,
		Cycle:            m.cycle,
		ROB:              Occupancy{Used: m.robN, Size: m.cfg.ROBSize},
		IQ:               Occupancy{Used: m.iqCount, Size: m.cfg.IQSize},
		LQ:               Occupancy{Used: m.lqCount, Size: m.cfg.LQSize},
		SQ:               Occupancy{Used: len(m.sq), Size: m.cfg.SQSize},
		PRFFree:          m.prfFree,
		FetchBlocked:     m.fetchBlocked != nil,
		FetchResumeCycle: m.fetchResumeC,
		Stats:            m.stats,
		WatchdogWindow:   WatchdogWindow,
	}
	if m.robN > 0 {
		head := m.uopDump(m.robBuf[m.robHead])
		d.Oldest = &head
		for i := 0; i < m.robN && i < RetireHistory; i++ {
			d.ROBSample = append(d.ROBSample, m.uopDump(m.robAt(i)))
		}
	}
	for _, e := range m.sq {
		d.StoreQueue = append(d.StoreQueue, SQDump{
			Seq:          e.u.seq,
			PC:           e.u.pc,
			Addr:         e.u.addr,
			Width:        e.u.memWidth,
			AddrReady:    e.addrReady,
			Retired:      e.u.stage == stRetired,
			Dequeuing:    e.dequeuing,
			DequeueDoneC: e.dequeueDoneC,
		})
	}
	for i := m.nRetired - min(m.nRetired, RetireHistory); i < m.nRetired; i++ {
		r := &m.retired[i%RetireHistory]
		d.LastRetired = append(d.LastRetired, UopDump{
			Seq:        r.seq,
			PC:         r.t.pc,
			Inst:       r.t.inst.String(),
			Class:      r.t.class.String(),
			Stage:      stageName(stRetired),
			FetchCycle: r.fetchC,
			DoneCycle:  r.doneC,
		})
	}
	// New rejects a nil hierarchy.
	d.Cache = &CacheDump{
		L1:               m.hier.L1.Stats(),
		L2:               m.hier.L2.Stats(),
		DemandAccesses:   m.hier.DemandAccesses(),
		PrefetchRequests: m.hier.PrefetchRequests(),
	}
	if err := m.hier.InvariantError(); err != nil {
		d.Cache.InvariantError = err.Error()
	}
	return d
}
