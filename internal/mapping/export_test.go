package mapping

// The memo's bounds, for the tests that drive a history past them.
const (
	MaxLoggedWrites  = maxLoggedWrites
	MaxMemberHistory = maxMemberHistory
)
