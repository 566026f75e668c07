package pipeline

// ErrCrossCheck is the error a cross-checked machine fails with when an
// incremental invariant check and its full counterpart disagree.
var ErrCrossCheck = errCrossCheck

// CrossCheckInvariants makes m run the full ROB walk and readiness sweep
// beside the incremental checks on every cycle (Config.CheckInvariants
// must be on) and fail with ErrCrossCheck on the first cycle they report
// differently.
func CrossCheckInvariants(m *Machine) { m.chk.cross = true }
