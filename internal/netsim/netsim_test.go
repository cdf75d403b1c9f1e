package netsim

import (
	"fmt"
	"testing"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// stable returns a zero-jitter copy of p for exact-time assertions.
func stable(p Profile) Profile {
	p.Jitter = 0
	return p
}

func TestUploadTiming(t *testing.T) {
	e := sim.NewEngine(1)
	// 8 Mbps up, zero RTT-ish: 1 MB = 8 Mbit -> 1 s.
	prof := Profile{Name: "test", RTT: 0, UpMbps: 8, DownMbps: 8, ConnSetup: 0}
	l := NewLink(e, prof)
	var d time.Duration
	e.Spawn("c", func(p *sim.Proc) { d, _ = l.Upload(p, 1_000_000) })
	e.Run()
	if d != time.Second {
		t.Fatalf("upload took %v, want 1s", d)
	}
}

func TestLatencyAddsHalfRTT(t *testing.T) {
	e := sim.NewEngine(1)
	prof := Profile{Name: "test", RTT: 100 * time.Millisecond, UpMbps: 8000, DownMbps: 8000}
	l := NewLink(e, prof)
	var d time.Duration
	e.Spawn("c", func(p *sim.Proc) { d, _ = l.Upload(p, 1000) })
	e.Run()
	if d < 50*time.Millisecond || d > 51*time.Millisecond {
		t.Fatalf("tiny upload took %v, want ~RTT/2 = 50ms", d)
	}
}

func TestConnectCost(t *testing.T) {
	e := sim.NewEngine(1)
	prof := Profile{Name: "test", RTT: 100 * time.Millisecond, UpMbps: 8, DownMbps: 8, ConnSetup: 350 * time.Millisecond}
	l := NewLink(e, prof)
	var d time.Duration
	e.Spawn("c", func(p *sim.Proc) { d, _ = l.Connect(p) })
	e.Run()
	if d != 500*time.Millisecond { // 350ms + 1.5*100ms
		t.Fatalf("connect took %v, want 500ms", d)
	}
	if s := l.Stats(); s.Connections != 1 || s.ConnectTime != d {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAsymmetricBandwidth3G(t *testing.T) {
	// The paper's 3G: 0.38 Mbps up, 0.09 Mbps down -> download of the same
	// payload is slower than upload.
	e := sim.NewEngine(1)
	l := NewLink(e, stable(ThreeG()))
	var up, down time.Duration
	e.Spawn("c", func(p *sim.Proc) {
		up, _ = l.Upload(p, 100*host.KB)
		down, _ = l.Download(p, 100*host.KB)
	})
	e.Run()
	if down <= up {
		t.Fatalf("3G download %v should be slower than upload %v", down, up)
	}
}

func TestProfileOrderingLANFastest(t *testing.T) {
	// Transferring the same payload must be fastest on LAN, slower on WAN,
	// slower again on 3G. (4G has more upstream bandwidth than both WiFi
	// profiles in the paper's measurements, so it is excluded here.)
	e := sim.NewEngine(1)
	payload := 500 * host.KB
	var times []time.Duration
	for _, prof := range []Profile{stable(LANWiFi()), stable(WANWiFi()), stable(ThreeG())} {
		l := NewLink(e, prof)
		e.Spawn("c", func(p *sim.Proc) {
			l.Connect(p)
			d, _ := l.Upload(p, payload)
			times = append(times, d)
		})
	}
	e.Run()
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Fatalf("upload times %v not ordered LAN < WAN < 3G", times)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, stable(LANWiFi()))
	e.Spawn("c", func(p *sim.Proc) {
		l.Upload(p, 1000)
		l.Upload(p, 2000)
		l.Download(p, 500)
	})
	e.Run()
	s := l.Stats()
	if s.BytesUp != 3000 || s.BytesDown != 500 {
		t.Fatalf("bytes = %d up / %d down, want 3000/500", s.BytesUp, s.BytesDown)
	}
	if s.TransfersUp != 2 || s.TransfersDn != 1 {
		t.Fatalf("transfer counts = %d/%d", s.TransfersUp, s.TransfersDn)
	}
	l.ResetStats()
	if l.Stats().BytesUp != 0 {
		t.Fatal("ResetStats did not zero totals")
	}
}

func TestRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	prof := Profile{Name: "test", RTT: 100 * time.Millisecond, UpMbps: 8000, DownMbps: 8000}
	l := NewLink(e, prof)
	var d time.Duration
	e.Spawn("c", func(p *sim.Proc) { d, _ = l.RoundTrip(p, 100, 100) })
	e.Run()
	if d < 100*time.Millisecond || d > 110*time.Millisecond {
		t.Fatalf("round trip took %v, want ~1 RTT", d)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func() time.Duration {
		e := sim.NewEngine(7)
		l := NewLink(e, ThreeG())
		var d time.Duration
		e.Spawn("c", func(p *sim.Proc) { d, _ = l.Upload(p, 200*host.KB) })
		e.Run()
		return d
	}
	if run() != run() {
		t.Fatal("same seed produced different jittered transfer times")
	}
}

func TestJitterNeverNegative(t *testing.T) {
	e := sim.NewEngine(3)
	prof := Profile{Name: "wild", RTT: 10 * time.Millisecond, UpMbps: 8, DownMbps: 8, Jitter: 2.0}
	l := NewLink(e, prof)
	e.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if d, _ := l.Upload(p, 1000); d <= 0 {
				t.Errorf("transfer %d took %v", i, d)
			}
		}
	})
	e.Run()
}

func TestProfileByName(t *testing.T) {
	for _, want := range []string{"LAN WiFi", "WAN WiFi", "3G", "4G"} {
		p, err := ProfileByName(want)
		if err != nil || p.Name != want {
			t.Fatalf("ProfileByName(%q) = %v, %v", want, p, err)
		}
	}
	if _, err := ProfileByName("5G"); err == nil {
		t.Fatal("unknown profile did not error")
	}
}

func TestPaperBandwidths(t *testing.T) {
	if g := ThreeG(); g.UpMbps != 0.38 || g.DownMbps != 0.09 {
		t.Fatalf("3G = %v/%v, want paper's 0.38/0.09 Mbps", g.UpMbps, g.DownMbps)
	}
	if g := FourG(); g.UpMbps != 48.97 || g.DownMbps != 7.64 {
		t.Fatalf("4G = %v/%v, want paper's 48.97/7.64 Mbps", g.UpMbps, g.DownMbps)
	}
	if w := WANWiFi(); w.RTT != 60*time.Millisecond {
		t.Fatalf("WAN WiFi RTT = %v, want the paper's ~60ms", w.RTT)
	}
}

func TestFaultHookDropsAndStalls(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, Profile{Name: "test", RTT: 0, UpMbps: 8, DownMbps: 8})
	dropNext := false
	l.SetFault("dev", func(p *sim.Proc, op, target string, size host.Bytes) error {
		if dropNext && op == "net.upload" {
			dropNext = false
			return errDropped
		}
		return nil
	})
	var okDur, failDur time.Duration
	var failErr error
	e.Spawn("c", func(p *sim.Proc) {
		okDur, _ = l.Upload(p, 1_000_000) // 1s nominal
		dropNext = true
		failDur, failErr = l.Upload(p, 1_000_000)
	})
	e.Run()
	if okDur != time.Second {
		t.Fatalf("healthy upload took %v, want 1s", okDur)
	}
	if failErr == nil {
		t.Fatal("dropped upload returned no error")
	}
	// A dropped transfer burns partial airtime (half nominal) but counts
	// no bytes.
	if failDur <= 0 || failDur >= time.Second {
		t.Fatalf("dropped upload took %v, want (0, 1s)", failDur)
	}
	s := l.Stats()
	if s.Faults != 1 {
		t.Fatalf("fault count = %d, want 1", s.Faults)
	}
	if s.BytesUp != 1_000_000 || s.TransfersUp != 1 {
		t.Fatalf("dropped transfer polluted stats: %+v", s)
	}
}

var errDropped = fmt.Errorf("test: dropped")
