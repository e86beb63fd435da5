// Package report renders the benchmark harness's output: aligned ASCII
// tables and ASCII line charts for the figure reproductions. Everything
// writes to an io.Writer so CLIs and tests share the same rendering
// path.
package report

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ErrColumnMismatch reports a row whose cell count differs from the
// header.
var ErrColumnMismatch = errors.New("report: row length does not match header")

// Table is an aligned text table with a title and fixed headers.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	h := make([]string, len(headers))
	copy(h, headers)
	return &Table{title: title, headers: h}
}

// AddRow appends a row; its length must match the header.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.headers) {
		return fmt.Errorf("%w: got %d cells, want %d", ErrColumnMismatch, len(cells), len(t.headers))
	}
	row := make([]string, len(cells))
	copy(row, cells)
	t.rows = append(t.rows, row)
	return nil
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); w > widths[i] {
				widths[i] = w
			}
		}
	}

	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - utf8.RuneCountInString(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, wdt := range widths {
		total += wdt + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return fmt.Sprintf("report: render failed: %v", err)
	}
	return b.String()
}

// F formats a float compactly for table cells (6 significant digits).
func F(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// F4 formats a float with 4 decimal places (for probabilities).
func F4(v float64) string {
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// I formats an int.
func I(v int) string {
	return strconv.Itoa(v)
}
