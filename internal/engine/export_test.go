package engine

// Every test of this package runs with the quiet rule verified: a poll or
// drain a lock-step loop skips is re-issued, and one that had work fails
// the test (VerifyQuiet).
func init() { VerifyQuiet = true }
