package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteResult is what the default command writes: every workload's run, each
// measured in a child process of its own so that peak RSS, GC state and CPU
// time are per workload. The parent only starts children and gathers files.
type suiteResult struct {
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Trace   bool         `json:"trace"`
	Runs    []*runResult `json:"runs"`
}

func (s *suiteResult) fileName() string {
	if s.Trace {
		return "result.trace.json"
	}
	return "result.json"
}

func runSuite(opt options) error {
	dir := opt.out
	if dir == "" {
		dir = defaultOut
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	suite := &suiteResult{Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace}
	incorrect := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-out", dir,
		}
		if opt.trace {
			args = append(args, "-trace", "1")
		}
		if opt.smoke {
			args = append(args, "-smoke")
		}
		child := exec.Command(self, args...)
		child.Stdout, child.Stderr = os.Stdout, os.Stderr
		runErr := child.Run()
		run := &runResult{Workload: w.Name, Trace: opt.trace}
		buf, err := os.ReadFile(filepath.Join(dir, run.fileName()))
		if err != nil {
			return fmt.Errorf("%s: %v (%v)", w.Name, runErr, err)
		}
		if err := json.Unmarshal(buf, run); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if runErr != nil || !run.Correct {
			incorrect++
		}
		if opt.trace { // every traced child writes trace.json; keep them all
			if err := os.Rename(filepath.Join(dir, "trace.json"), filepath.Join(dir, "trace."+w.Name+".json")); err != nil {
				return err
			}
		}
		suite.Runs = append(suite.Runs, run)
	}
	path := filepath.Join(dir, suite.fileName())
	if err := writeJSON(path, suite); err != nil {
		return err
	}
	fmt.Printf("suite result in %s\n", path)
	if incorrect > 0 {
		return fmt.Errorf("%d of %d workloads failed their correctness checks", incorrect, len(workloads))
	}
	return nil
}
