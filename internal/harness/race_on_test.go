//go:build race

package harness

// raceEnabled reports whether this test binary was built with the race
// detector. The route chaos soaks couple fault cadence to wall clock and
// are skipped under the detector's slowdown.
const raceEnabled = true
