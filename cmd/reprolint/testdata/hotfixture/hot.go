// Package hotfixture is a reprolint negative-test fixture: a module with
// a seeded hot-path allocation, and a test-only export in internal/seed.
// CI runs reprolint against it and fails if the exit status is 0.
package hotfixture

// Dispatch plays the VM event loop's role in miniature.
//
//reprolint:hotpath seeded root
func Dispatch(events []uint64) uint64 {
	var total uint64
	for _, e := range events {
		total += record(e)
	}
	return total
}

// record carries the seeded allocation a hot-reachable callee must not
// make.
func record(e uint64) uint64 {
	buf := make([]uint64, 1) // seeded hot-path allocation
	buf[0] = e
	return buf[0]
}
