//go:build carverify

package serve

// verifyReuse is on: every reused ranking is checked against a rank from
// scratch (see checkReuse).
const verifyReuse = true
