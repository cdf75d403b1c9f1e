package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// env records where a result was measured, so two results can be told apart
// when they disagree.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
}

func readEnv() env {
	return env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     gitCommit(),
		LoadStart:  loadAvg(),
	}
}

func (e *env) finish() { e.LoadEnd = loadAvg() }

func firstLine(path string) string {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	return strings.TrimSpace(line)
}

// loadAvg is the 1, 5 and 15 minute load averages.
func loadAvg() string {
	f := strings.Fields(firstLine("/proc/loadavg"))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is "unknown" outside a git checkout (the driver's copy is one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
