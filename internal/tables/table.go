// Package tables renders experiment output: aligned ASCII tables (the form
// the paper's Table 4.1 takes), Markdown and CSV for downstream tooling,
// and ASCII line plots for the figures.
package tables

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rectangular grid of cells with column headers and a title.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v. Rows shorter than the
// header are padded, longer ones are truncated.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = formatCell(cells[i])
		}
	}
	t.rows = append(t.rows, row)
}

func formatCell(v any) string {
	switch x := v.(type) {
	case float64:
		return trimFloat(fmt.Sprintf("%.4f", x))
	case float32:
		return trimFloat(fmt.Sprintf("%.4f", x))
	case string:
		return x
	default:
		return fmt.Sprintf("%v", v)
	}
}

func trimFloat(s string) string {
	if !strings.Contains(s, ".") {
		return s
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col); empty string out of range.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.Columns) {
		return ""
	}
	return t.rows[row][col]
}

// WriteASCII renders an aligned plain-text table.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// WriteMarkdown renders a GitHub-flavored Markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders RFC-4180-style CSV (quoting cells containing commas,
// quotes or newlines).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriterFor returns the Table method that renders the named output
// format: "text" (WriteASCII), "csv" or "markdown". A command resolves its
// -format flag with it before doing any work, so a bad name fails first.
func WriterFor(format string) (func(*Table, io.Writer) error, error) {
	switch format {
	case "text":
		return (*Table).WriteASCII, nil
	case "csv":
		return (*Table).WriteCSV, nil
	case "markdown":
		return (*Table).WriteMarkdown, nil
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
