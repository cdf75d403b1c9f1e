// Package trace generates LiveLab-style app-access traces (§VI-E): the
// paper replays real-world access timestamps from the LiveLab dataset [23]
// as offloading request start times. That dataset is not redistributable,
// so this package synthesizes traces with the same structure — per-user
// app sessions arriving over hours, bursts of requests within a session —
// from a seeded generator, preserving the property that matters for
// Figure 11: arrivals cluster, so cold runtimes are hit by real request
// bursts rather than a uniform trickle.
package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rattrap/internal/workload"
)

// Event is one app access: device d starts a request for App at At.
type Event struct {
	At     time.Duration
	Device int
	App    string
}

// Config shapes a synthetic trace.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Devices is the number of users/handsets.
	Devices int
	// Duration is the covered wall-clock span.
	Duration time.Duration
	// SessionsPerHour is the mean app-session arrival rate per device.
	SessionsPerHour float64
	// RequestsPerSession is the mean burst length within a session.
	RequestsPerSession float64
	// ThinkTime is the mean gap between requests inside a session.
	ThinkTime time.Duration
	// Apps to draw from; defaults to the four benchmarks.
	Apps []string
}

// DefaultConfig mirrors the scale of the paper's trace experiment.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		Devices:            5,
		Duration:           2 * time.Hour,
		SessionsPerHour:    6,
		RequestsPerSession: 5,
		ThinkTime:          8 * time.Second,
		Apps: []string{
			workload.NameOCR, workload.NameChess,
			workload.NameVirusScan, workload.NameLinpack,
		},
	}
}

// Generate synthesizes the trace: per-device Poisson session arrivals,
// geometric burst lengths, exponential think times. Events are returned
// sorted by time.
func Generate(cfg Config) ([]Event, error) {
	if cfg.Devices <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: bad config: %d devices, %v duration", cfg.Devices, cfg.Duration)
	}
	if cfg.SessionsPerHour <= 0 || cfg.RequestsPerSession < 1 {
		return nil, fmt.Errorf("trace: bad rates: %v sessions/h, %v req/session", cfg.SessionsPerHour, cfg.RequestsPerSession)
	}
	apps := cfg.Apps
	if len(apps) == 0 {
		apps = DefaultConfig(0).Apps
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var events []Event
	for d := 0; d < cfg.Devices; d++ {
		// Each device favors one app (users are creatures of habit) but
		// mixes in the others.
		favorite := apps[rng.Intn(len(apps))]
		t := time.Duration(0)
		meanGap := time.Duration(float64(time.Hour) / cfg.SessionsPerHour)
		for {
			t += time.Duration(rng.ExpFloat64() * float64(meanGap))
			if t >= cfg.Duration {
				break
			}
			app := favorite
			if rng.Float64() < 0.4 {
				app = apps[rng.Intn(len(apps))]
			}
			// Burst: geometric with the configured mean.
			n := 1
			for rng.Float64() < 1-1/cfg.RequestsPerSession {
				n++
			}
			st := t
			for i := 0; i < n && st < cfg.Duration; i++ {
				events = append(events, Event{At: st, Device: d, App: app})
				st += time.Duration(rng.ExpFloat64() * float64(cfg.ThinkTime))
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		if events[i].Device != events[j].Device {
			return events[i].Device < events[j].Device
		}
		return events[i].App < events[j].App
	})
	return events, nil
}
