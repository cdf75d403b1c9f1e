package experiments

import (
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/netsim"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := DefaultRun(core.KindRattrap, netsim.LANWiFi(), "NotAnApp", 1)
	if _, err := Run(bad); err == nil {
		t.Error("unknown app accepted")
	}
}
