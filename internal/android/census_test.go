package android

import "testing"

// A customized boot's census — its daemons, zygote, installd, its services
// and the offload controller — fits the array inside the Runtime: a table
// that outgrew it would cost every boot an allocation.
func TestCustomizedCensusFitsProcBuf(t *testing.T) {
	var r Runtime
	if n := len(initDaemons(true)) + 2 + len(services(true)) + 1; n > len(r.procBuf) {
		t.Fatalf("a customized boot starts %d processes, the Runtime holds %d", n, len(r.procBuf))
	}
}
