// Package netsim models the four network scenarios of the paper's
// evaluation (§VI-A): LAN WiFi, WAN WiFi, 3G and 4G. A Link is the path
// between one mobile device and the cloud; transfers block the calling
// sim.Proc for latency + serialization time, with per-profile jitter drawn
// from the engine's seeded random source. Upload is device→cloud (mobile
// code, files, parameters), download is cloud→device (results).
package netsim

import (
	"fmt"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// Profile describes one network scenario.
type Profile struct {
	Name string
	// RTT is the steady-state round-trip time.
	RTT time.Duration
	// UpMbps / DownMbps are the device's upstream and downstream
	// bandwidths in megabits per second, as measured in the paper.
	UpMbps   float64
	DownMbps float64
	// Jitter is the relative standard deviation of transfer times
	// (0 = perfectly stable).
	Jitter float64
	// ConnSetup is the extra connection-establishment cost beyond the TCP
	// handshake: DNS, NAT traversal, and for cellular the radio promotion
	// from idle to a dedicated channel.
	ConnSetup time.Duration
}

// The paper's four scenarios. Bandwidths for 3G/4G are the measured values
// quoted in §VI-A; WiFi numbers are typical 802.11n.
func LANWiFi() Profile {
	return Profile{Name: "LAN WiFi", RTT: 2 * time.Millisecond, UpMbps: 60, DownMbps: 60, Jitter: 0.03, ConnSetup: 2 * time.Millisecond}
}

func WANWiFi() Profile {
	return Profile{Name: "WAN WiFi", RTT: 60 * time.Millisecond, UpMbps: 20, DownMbps: 20, Jitter: 0.08, ConnSetup: 30 * time.Millisecond}
}

func ThreeG() Profile {
	return Profile{Name: "3G", RTT: 250 * time.Millisecond, UpMbps: 0.38, DownMbps: 0.09, Jitter: 0.30, ConnSetup: 1500 * time.Millisecond}
}

func FourG() Profile {
	return Profile{Name: "4G", RTT: 50 * time.Millisecond, UpMbps: 48.97, DownMbps: 7.64, Jitter: 0.15, ConnSetup: 260 * time.Millisecond}
}

// Profiles returns all four scenarios in the paper's presentation order.
func Profiles() []Profile {
	return []Profile{LANWiFi(), WANWiFi(), FourG(), ThreeG()}
}

// ProfileByName looks a scenario up by its display name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("netsim: unknown profile %q", name)
}

// Stats accumulates traffic totals over the life of a Link.
type Stats struct {
	BytesUp     host.Bytes
	BytesDown   host.Bytes
	UpAirtime   time.Duration // time the radio spent transmitting
	DownAirtime time.Duration // time the radio spent receiving
	Connections int
	ConnectTime time.Duration
	TransfersUp int
	TransfersDn int
	// Faults counts operations that failed from an injected fault.
	Faults int
}

// FaultHook is consulted at the start of every link operation. A hook may
// sleep p to stall the operation; returning a non-nil error fails it (the
// link charges half the nominal time, modeling a mid-transfer loss, and
// propagates the error). The op is one of faults.SiteConnect/SiteUpload/
// SiteDownload ("net.connect", "net.upload", "net.download").
type FaultHook func(p *sim.Proc, op string, size host.Bytes) error

// Link is one device's path to the cloud under a given profile.
type Link struct {
	e     *sim.Engine
	prof  Profile
	stats Stats
	fault FaultHook
}

// SetFault installs a fault hook (nil removes it). The scenario runner
// wires every arrival's link to its active fault plan.
func (l *Link) SetFault(h FaultHook) { l.fault = h }

// NewLink creates a link on engine e.
func NewLink(e *sim.Engine, prof Profile) *Link {
	if prof.UpMbps <= 0 || prof.DownMbps <= 0 {
		panic(fmt.Sprintf("netsim: profile %q has non-positive bandwidth", prof.Name))
	}
	return &Link{e: e, prof: prof}
}

// Profile returns the link's scenario.
func (l *Link) Profile() Profile { return l.prof }

// Stats returns accumulated traffic totals.
func (l *Link) Stats() Stats { return l.stats }

// ResetStats zeroes the accumulated totals.
func (l *Link) ResetStats() { l.stats = Stats{} }

// jittered perturbs d by the profile's jitter, never below 60% of nominal.
func (l *Link) jittered(d time.Duration) time.Duration {
	if l.prof.Jitter == 0 {
		return d
	}
	f := 1 + l.e.Rand().NormFloat64()*l.prof.Jitter
	if f < 0.6 {
		f = 0.6
	}
	return time.Duration(float64(d) * f)
}

// applyFault consults the hook. On failure the link charges a fraction of
// the operation's nominal duration (the fault lands mid-flight, not
// before the radio keyed up) and reports the error.
func (l *Link) applyFault(p *sim.Proc, op string, size host.Bytes, nominal time.Duration) error {
	if l.fault == nil {
		return nil
	}
	if err := l.fault(p, op, size); err != nil {
		l.stats.Faults++
		p.Sleep(l.jittered(nominal / 2))
		return err
	}
	return nil
}

// Connect establishes a connection (TCP three-way handshake plus the
// profile's setup cost) and returns the time it took. A non-nil error is
// an injected fault: the attempt consumed time but no connection exists.
func (l *Link) Connect(p *sim.Proc) (time.Duration, error) {
	t0 := l.e.Now()
	nominal := l.prof.ConnSetup + l.prof.RTT*3/2
	if err := l.applyFault(p, "net.connect", 0, nominal); err != nil {
		return (l.e.Now() - t0).Duration(), err
	}
	d := l.jittered(nominal)
	p.Sleep(d)
	l.stats.Connections++
	l.stats.ConnectTime += d
	return (l.e.Now() - t0).Duration(), nil
}

// Upload transfers size bytes from device to cloud and returns the elapsed
// time (half an RTT of propagation plus serialization at upstream
// bandwidth, jittered). A non-nil error is an injected fault; the elapsed
// time covers whatever airtime the failed attempt burned.
func (l *Link) Upload(p *sim.Proc, size host.Bytes) (time.Duration, error) {
	t0 := l.e.Now()
	if err := l.applyFault(p, "net.upload", size, l.nominal(size, l.prof.UpMbps)); err != nil {
		return (l.e.Now() - t0).Duration(), err
	}
	d := l.transfer(p, size, l.prof.UpMbps)
	l.stats.BytesUp += size
	l.stats.UpAirtime += d
	l.stats.TransfersUp++
	return (l.e.Now() - t0).Duration(), nil
}

// Download transfers size bytes from cloud to device and returns the
// elapsed time.
func (l *Link) Download(p *sim.Proc, size host.Bytes) (time.Duration, error) {
	t0 := l.e.Now()
	if err := l.applyFault(p, "net.download", size, l.nominal(size, l.prof.DownMbps)); err != nil {
		return (l.e.Now() - t0).Duration(), err
	}
	d := l.transfer(p, size, l.prof.DownMbps)
	l.stats.BytesDown += size
	l.stats.DownAirtime += d
	l.stats.TransfersDn++
	return (l.e.Now() - t0).Duration(), nil
}

func (l *Link) nominal(size host.Bytes, mbps float64) time.Duration {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	serial := time.Duration(float64(size) * 8 / (mbps * 1e6) * float64(time.Second))
	return l.prof.RTT/2 + serial
}

func (l *Link) transfer(p *sim.Proc, size host.Bytes, mbps float64) time.Duration {
	d := l.jittered(l.nominal(size, mbps))
	p.Sleep(d)
	return d
}

// RoundTrip models a small request/response exchange (control messages):
// one RTT plus serialization of both payloads.
func (l *Link) RoundTrip(p *sim.Proc, up, down host.Bytes) (time.Duration, error) {
	t0 := l.e.Now()
	if _, err := l.Upload(p, up); err != nil {
		return (l.e.Now() - t0).Duration(), err
	}
	if _, err := l.Download(p, down); err != nil {
		return (l.e.Now() - t0).Duration(), err
	}
	return (l.e.Now() - t0).Duration(), nil
}
