package serve

// EncodedRankResponse is the reference rank-response rendering, for the
// external tests.
var EncodedRankResponse = encodedRankResponse
