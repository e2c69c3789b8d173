package supervise

import (
	"repro/internal/interp"
	"repro/internal/runtime"
)

// SoakResult is a soak verdict: the scheduler's closing statistics and
// every oracle violation found.
type SoakResult struct {
	Jobs       int
	Violations []string
	Stats      Stats
}

// Ok reports whether the soak finished without an oracle violation.
func (r *SoakResult) Ok() bool { return len(r.Violations) == 0 }

// ReferenceRun executes one job on a fresh single-use Runner, outside
// the scheduler, with the same limits — the contamination-free baseline
// the scheduler-chaos and router-chaos soaks diff served results against.
func ReferenceRun(name, src string, mode runtime.Mode, lim interp.Limits) *JobResult {
	rc := runtime.ServingConfig(mode)
	rc.Limits = lim
	jr := &JobResult{Mode: mode, Worker: -1}
	r, err := runtime.NewRunner(rc)
	if err != nil {
		jr.Class = ClassError
		jr.Err = err.Error()
		return jr
	}
	out, err := r.Run(name, src)
	jr.Class = Classify(err)
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	jr.Output = out.Output
	return jr
}

// clip bounds an output string for violation messages.
func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}
