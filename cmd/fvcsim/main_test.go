package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fullview/internal/checkpoint"
)

func TestRunUniformDefaults(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "200", "-grid", "15"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"uniform deployment", "200 cameras", "full-view covered fraction",
		"necessary CSA", "sufficient CSA", "grid 15×15",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPoisson(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "200", "-deploy", "poisson", "-grid", "10"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "poisson deployment") {
		t.Errorf("output missing poisson banner:\n%s", b.String())
	}
}

func TestRunWithBarrier(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "300", "-r", "0.3", "-grid", "10", "-barrier", "0.5"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "barrier y=0.500") {
		t.Errorf("output missing barrier report:\n%s", b.String())
	}
}

func TestRunReportsGapWhenSparse(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "10", "-r", "0.05", "-grid", "10"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "first uncovered grid point") {
		t.Errorf("sparse run should report a gap:\n%s", b.String())
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"-n", "100", "-grid", "10", "-seed", "7"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "100", "-grid", "10", "-seed", "7"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different output")
	}
	var c strings.Builder
	if err := run([]string{"-n", "100", "-grid", "10", "-seed", "8"}, &c); err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Error("different seeds produced identical output (suspicious)")
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	base := []string{"-n", "300", "-grid", "20", "-barrier", "0.5", "-seed", "9"}
	var seq strings.Builder
	if err := run(append([]string{"-parallel", "1"}, base...), &seq); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"0", "2", "3", "7"} {
		var par strings.Builder
		if err := run(append([]string{"-parallel", workers}, base...), &par); err != nil {
			t.Fatal(err)
		}
		if par.String() != seq.String() {
			t.Errorf("-parallel %s output differs from sequential:\n%s\nvs\n%s",
				workers, par.String(), seq.String())
		}
	}
}

func TestRunHeterogeneousGroups(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-n", "200", "-groups", "0.5:0.2:0.5,0.5:0.1:0.25", "-grid", "10"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "weighted sensing area") {
		t.Errorf("heterogeneous run missing output:\n%s", b.String())
	}
}

func TestRunWritesSVG(t *testing.T) {
	path := t.TempDir() + "/map.svg"
	var b strings.Builder
	if err := run([]string{"-n", "150", "-grid", "8", "-svg", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "coverage map written to") {
		t.Error("missing svg confirmation line")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read svg: %v", err)
	}
	if !strings.HasPrefix(string(data), "<svg") || !strings.Contains(string(data), "</svg>") {
		t.Error("svg file malformed")
	}
}

func TestRunRejectsBadGroups(t *testing.T) {
	var b strings.Builder
	for _, groups := range []string{"nonsense", "0.5:0.1:0.5", "1:0.1"} {
		if err := run([]string{"-groups", groups}, &b); err == nil {
			t.Errorf("groups %q accepted", groups)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	var b strings.Builder
	cases := [][]string{
		{"-theta", "0"},
		{"-theta", "1.5"},
		{"-deploy", "lattice"},
		{"-n", "200", "-barrier", "1.5"},
		{"-r", "-0.1"},
	}
	for _, args := range cases {
		if err := run(args, &b); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunCheckpointBitIdentical(t *testing.T) {
	base := []string{"-n", "200", "-grid", "12", "-seed", "5"}
	var plain strings.Builder
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "survey.jsonl")
	args := append([]string{"-checkpoint", journal}, base...)
	var first strings.Builder
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if first.String() != plain.String() {
		t.Errorf("checkpointed output differs from plain:\n%s\nvs\n%s", first.String(), plain.String())
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	// Resume from the completed journal: no recomputation, same bytes.
	var second strings.Builder
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if second.String() != plain.String() {
		t.Error("resumed output differs from plain run")
	}
}

func TestRunCheckpointResumesPartialJournal(t *testing.T) {
	base := []string{"-n", "200", "-grid", "12", "-seed", "5"}
	journal := filepath.Join(t.TempDir(), "survey.jsonl")
	args := append([]string{"-checkpoint", journal}, base...)
	var full strings.Builder
	if err := run(args, &full); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Grid 12 runs as two groups of six rows: a header and two records.
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("journal has %d lines, want a header and 2 group records:\n%s", len(lines)-1, data)
	}
	// The states a killed run leaves behind: the header plus the first
	// group, and that with the second group's append torn mid-record.
	for name, partial := range map[string]string{
		"first group": lines[0] + lines[1],
		"torn tail":   lines[0] + lines[1] + lines[2][:len(lines[2])/2],
	} {
		if err := os.WriteFile(journal, []byte(partial), 0o644); err != nil {
			t.Fatal(err)
		}
		var resumed strings.Builder
		if err := run(args, &resumed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resumed.String() != full.String() {
			t.Errorf("%s: resume from partial journal produced different output", name)
		}
		if after, err := os.ReadFile(journal); err != nil || string(after) != string(data) {
			t.Errorf("%s: resumed journal = %q (%v), want %q", name, after, err, data)
		}
	}
}

// TestRunCheckpointRefusesPerRowJournal: a journal of the earlier
// one-row-per-trial layout (testdata/per_row_journal.jsonl, the header
// and first four rows of a killed run of these arguments) is refused
// with ErrMismatch and left byte-identical, not misread as row groups.
func TestRunCheckpointRefusesPerRowJournal(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "per_row_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "survey.jsonl")
	if err := os.WriteFile(journal, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-checkpoint", journal, "-n", "200", "-grid", "12", "-seed", "5"}, &strings.Builder{})
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("per-row journal: err = %v, want ErrMismatch", err)
	}
	if after, err := os.ReadFile(journal); err != nil || string(after) != string(fixture) {
		t.Errorf("refused journal became %q (%v)", after, err)
	}
}

func TestRunCheckpointRefusesChangedParams(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "survey.jsonl")
	var b strings.Builder
	if err := run([]string{"-checkpoint", journal, "-n", "150", "-grid", "10", "-seed", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-checkpoint", journal, "-n", "150", "-grid", "10", "-seed", "3"}, // seed changed
		{"-checkpoint", journal, "-n", "160", "-grid", "10", "-seed", "2"}, // n changed
	} {
		if err := run(args, &b); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Errorf("args %v against stale journal: err = %v, want ErrMismatch", args, err)
		}
	}
}

func TestWriteSVGAtomicLeavesNoPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "map.svg")
	// A write into a nonexistent directory must fail without creating
	// anything under the requested name.
	if err := run([]string{"-n", "100", "-grid", "8", "-svg", filepath.Join(dir, "missing", "map.svg")}, &strings.Builder{}); err == nil {
		t.Error("svg into missing directory should fail")
	}
	if err := run([]string{"-n", "100", "-grid", "8", "-svg", path}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "map.svg" {
			t.Errorf("leftover temp file %q in svg directory", e.Name())
		}
	}
}
