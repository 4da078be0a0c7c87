// Package user references the deprecated names from another package.
package user

import "repro/internal/lint/testdata/deprecated/dep"

// Use sets the deprecated field and calls the deprecated function.
func Use() int {
	c := dep.Config{Old: 1, Fresh: 2, Mention: 3}
	return c.Fresh + dep.OldFunc() + dep.Fresh()
}
