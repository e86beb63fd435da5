package report

import (
	"errors"
	"strings"
	"testing"
)

// addRow adds a row a test knows to fit the header.
func addRow(t *testing.T, tab *Table, cells ...string) {
	t.Helper()
	if err := tab.AddRow(cells...); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "n", "value")
	if err := tab.AddRow("100", "0.5"); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("10000", "0.001"); err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"Demo", "n", "value", "100", "10000", "0.001", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tab := NewTable("", "a", "b")
	addRow(t, tab, "xxxxxx", "1")
	addRow(t, tab, "y", "2")
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	// Header, separator, two rows.
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), tab.String())
	}
	// Column "b" starts at the same offset on both data rows.
	if strings.Index(lines[2], "1") != strings.Index(lines[3], "2") {
		t.Errorf("columns not aligned:\n%s", tab.String())
	}
}

func TestTableAlignmentWithMultibyteRunes(t *testing.T) {
	tab := NewTable("", "name", "v")
	addRow(t, tab, "s_Nc — θ", "1")
	addRow(t, tab, "plain", "2")
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	// Rune-aware padding: the second column starts at the same *visual*
	// column, i.e. same rune offset, on both rows.
	runeIndex := func(s, sub string) int {
		i := strings.Index(s, sub)
		if i < 0 {
			return -1
		}
		return len([]rune(s[:i]))
	}
	if runeIndex(lines[2], "1") != runeIndex(lines[3], "2") {
		t.Errorf("multibyte rows misaligned:\n%s", tab.String())
	}
}

func TestTableRowMismatch(t *testing.T) {
	tab := NewTable("t", "a", "b")
	if err := tab.AddRow("only-one"); !errors.Is(err, ErrColumnMismatch) {
		t.Errorf("error = %v, want ErrColumnMismatch", err)
	}
	if err := tab.AddRow("x", "y", "z"); !errors.Is(err, ErrColumnMismatch) {
		t.Errorf("error = %v, want ErrColumnMismatch", err)
	}
}

func TestFormatters(t *testing.T) {
	if got := F(0.125); got != "0.125" {
		t.Errorf("F = %q", got)
	}
	if got := F4(0.12345); got != "0.1235" {
		t.Errorf("F4 = %q", got)
	}
	if got := I(42); got != "42" {
		t.Errorf("I = %q", got)
	}
}

func TestRenderChart(t *testing.T) {
	var b strings.Builder
	err := RenderChart(&b, "CSA vs n", []Series{
		{Name: "necessary", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}},
		{Name: "sufficient", X: []float64{1, 2, 3}, Y: []float64{6, 4, 2}},
	}, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"CSA vs n", "necessary", "sufficient", "*", "+", "|", "6", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestRenderChartErrors(t *testing.T) {
	var b strings.Builder
	if err := RenderChart(&b, "t", nil, 40, 10); !errors.Is(err, ErrNoSeries) {
		t.Errorf("empty series: error = %v, want ErrNoSeries", err)
	}
	if err := RenderChart(&b, "t", []Series{{X: []float64{1}, Y: []float64{1}}}, 1, 10); !errors.Is(err, ErrBadExtent) {
		t.Errorf("bad extent: error = %v, want ErrBadExtent", err)
	}
}

func TestRenderChartConstantSeries(t *testing.T) {
	// Degenerate extents (all x equal, all y equal) must not divide by
	// zero.
	var b strings.Builder
	err := RenderChart(&b, "flat", []Series{
		{Name: "s", X: []float64{5, 5}, Y: []float64{2, 2}},
	}, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "*") {
		t.Error("flat chart should still plot the point")
	}
}

func TestRenderChartSkipsNonFinite(t *testing.T) {
	var b strings.Builder
	err := RenderChart(&b, "nan", []Series{
		{Name: "s", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
	}, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
}
