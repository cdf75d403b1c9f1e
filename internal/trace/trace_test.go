package trace

import (
	"testing"
	"time"
)

func TestGenerateSortedAndBounded(t *testing.T) {
	cfg := DefaultConfig(1)
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	for i, ev := range events {
		if ev.At < 0 || ev.At >= cfg.Duration {
			t.Fatalf("event %d at %v outside [0, %v)", i, ev.At, cfg.Duration)
		}
		if i > 0 && events[i].At < events[i-1].At {
			t.Fatalf("events not sorted at %d", i)
		}
		if ev.Device < 0 || ev.Device >= cfg.Devices {
			t.Fatalf("event %d on device %d", i, ev.Device)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig(7))
	b, _ := Generate(DefaultConfig(7))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, _ := Generate(DefaultConfig(8))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateCoversAllApps(t *testing.T) {
	events, _ := Generate(DefaultConfig(3))
	counts := make(map[string]int)
	for _, ev := range events {
		counts[ev.App]++
	}
	for _, app := range DefaultConfig(0).Apps {
		if counts[app] == 0 {
			t.Errorf("app %s never appears", app)
		}
	}
}

func TestBurstiness(t *testing.T) {
	// Session structure: a meaningful fraction of consecutive same-device
	// gaps must be short (within a burst), and some long (between
	// sessions) — a uniform trickle has neither.
	events, _ := Generate(DefaultConfig(5))
	byDev := make(map[int][]time.Duration)
	for _, ev := range events {
		byDev[ev.Device] = append(byDev[ev.Device], ev.At)
	}
	short, long, total := 0, 0, 0
	for _, ts := range byDev {
		for i := 1; i < len(ts); i++ {
			gap := ts[i] - ts[i-1]
			total++
			if gap < 30*time.Second {
				short++
			}
			if gap > 3*time.Minute {
				long++
			}
		}
	}
	if total == 0 {
		t.Fatal("no gaps")
	}
	if float64(short)/float64(total) < 0.3 {
		t.Errorf("only %d/%d short gaps; trace not bursty", short, total)
	}
	if long == 0 {
		t.Error("no inter-session gaps")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultConfig(1)
	bad.Devices = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero devices accepted")
	}
	bad = DefaultConfig(1)
	bad.RequestsPerSession = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero requests/session accepted")
	}
}
