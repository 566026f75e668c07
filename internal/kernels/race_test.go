//go:build race

package kernels

// raceEnabled reports a -race build, whose runtime allocates objects of
// its own that allocation pins must allow for.
const raceEnabled = true
