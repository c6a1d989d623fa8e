//go:build !carverify

package serve

// verifyReuse is off: a reused ranking is served as it is (see checkReuse).
const verifyReuse = false
