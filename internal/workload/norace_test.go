//go:build !race

package workload

// Without the race detector the two exhaustive kernel checks walk every
// case; race_test.go says what they walk under it.
const (
	lpMaxOrder     = 160
	perftPositions = len(perftAtParent)
)
