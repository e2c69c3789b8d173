package supervise

import (
	"repro/internal/interp"
	"repro/internal/runtime"
)

// ReferenceRun executes one job on a fresh single-use Runner, outside
// the scheduler, with the same limits — the contamination-free baseline
// the soak harness (internal/harness) stamps its corpus with.
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
