package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSeed is the seed every checked-in BENCH_*.json was generated at
// (the -seed default, so `make bench-<mode>` regenerates the same file).
const goldenSeed = 42

// checkMode runs m once at goldenSeed and holds it to its gates and to
// want, the checked-in bytes of BENCH_<name>.json.
func checkMode(m mode, want []byte) error {
	rep, gate := m.run(io.Discard, goldenSeed)
	if gate != nil {
		return fmt.Errorf("-%s: %w", m.name, gate)
	}
	got, err := marshalReport(rep)
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	n := 0
	for n < len(gotLines) && n < len(wantLines) && gotLines[n] == wantLines[n] {
		n++
	}
	line := func(lines []string) string {
		if n < len(lines) {
			return strings.TrimSpace(lines[n])
		}
		return "<end of file>"
	}
	return fmt.Errorf("BENCH_%s.json differs from what this commit generates, first at line %d: checked in %q, generated %q; "+
		"if the change is intended, regenerate with `make bench-%s` and review the diff",
		m.name, n+1, line(wantLines), line(gotLines), m.name)
}

// TestCheckedInReports walks the mode table the command dispatches on:
// every report is regenerated, gated and byte-compared with the file at the
// repository root. The reports are virtual time only, so a mismatch is a
// behaviour change (or nondeterminism), never noise.
func TestCheckedInReports(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+m.name+".json"))
			if err != nil {
				t.Fatalf("%v (generate it with `make bench-%s`)", err, m.name)
			}
			if err := checkMode(m, want); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCheckModeCatchesDrift pins what TestCheckedInReports relies on: one
// edited byte fails the comparison and the message names the regenerating
// command, and a failed gate fails a mode even when the bytes match.
func TestCheckModeCatchesDrift(t *testing.T) {
	m := mode{name: "fake", run: func(io.Writer, int64) (any, error) {
		return map[string]int{"boots": 6}, nil
	}}
	want := []byte("{\n  \"boots\": 6\n}\n")
	if err := checkMode(m, want); err != nil {
		t.Fatalf("matching report rejected: %v", err)
	}
	err := checkMode(m, bytes.Replace(want, []byte("6"), []byte("7"), 1))
	if err == nil || !strings.Contains(err.Error(), "make bench-fake") || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("edited golden: got %v, want a line-2 mismatch naming `make bench-fake`", err)
	}
	gate := errors.New("speedup below the floor")
	m.run = func(io.Writer, int64) (any, error) { return map[string]int{"boots": 6}, gate }
	if err := checkMode(m, want); !errors.Is(err, gate) {
		t.Errorf("failed gate: got %v, want it to wrap %v", err, gate)
	}
}
