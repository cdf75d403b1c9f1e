//go:build race

package workload

// Under the race detector a kernel step costs about ten times what it does
// without it, and the two exhaustive kernel checks were two thirds of this
// package's -race time. There they walk a prefix of their cases, one that
// still reaches every kind of node they count; without -race (norace_test.go)
// they walk all of them.
const (
	// lpMaxOrder bounds TestLinpackBlockedEliminationEqualsRolled's orders:
	// 2…64 is one to sixteen panels, every last-panel width and both
	// parities of trailing rows, each system's Output checked.
	lpMaxOrder = 64
	// perftPositions bounds TestChessKingTrackingAndPerft's positions: the
	// first already walks checks, kept pins and dropped pins.
	perftPositions = 2
)
