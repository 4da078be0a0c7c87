// Package seed declares an export that only its test calls, the
// seeded testonly finding.
package seed

// Twice is called only from seed_test.go.
func Twice(x int) int { return 2 * x }
