package tensor

// HelperPeak returns the most ParallelFor helpers that have run at once
// since the last ResetHelperPeak.
func HelperPeak() int32 { return helpers.peak.Load() }

// ResetHelperPeak restarts the high-water mark HelperPeak reports.
func ResetHelperPeak() { helpers.peak.Store(0) }
