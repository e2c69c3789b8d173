//go:build race

package route

// raceEnabled reports whether this test binary was built with the race
// detector. Timing guards are skipped under the detector's slowdown.
const raceEnabled = true
