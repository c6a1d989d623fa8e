package journal

// Degraded reports lock-free whether the journal is sticky-failed.
func (j *Journal) Degraded() bool { return j.degraded.Load() }
