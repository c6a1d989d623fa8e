package serve

import (
	"sync/atomic"
	_ "unsafe" // go:linkname

	"repro/internal/serve/journal"
)

// EncodedRankResponse is the reference rank-response rendering, for the
// external tests.
var EncodedRankResponse = encodedRankResponse

// Sessions returns the per-user session manager (read helpers; session
// writes go through Apply).
func (s *Server) Sessions() *Sessions { return s.sessions }

// Journal returns the attached WAL, or nil.
func (s *Server) Journal() *journal.Journal { return s.wal.Load() }

// contextsResolved is internal/core's unexported count of the rule contexts
// plan compiles have resolved: a compile that keeps a plan's context half
// adds nothing to it.
//
//go:linkname contextsResolved repro/internal/core.contextsResolved
var contextsResolved atomic.Int64
