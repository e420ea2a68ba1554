package tables

import (
	"io"
	"strings"
	"testing"
)

func TestTableASCII(t *testing.T) {
	tb := New("Speedups", "N", "MVA", "GTPN")
	tb.AddRow(1, 0.86, 0.86)
	tb.AddRow(100, 6.07, "")
	var sb strings.Builder
	if err := tb.WriteASCII(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Speedups", "N", "MVA", "GTPN", "0.86", "6.07", "100", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count = %d, want 5:\n%s", len(lines), out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := New("", "col", "value")
	tb.AddRow("longlonglong", 1)
	var sb strings.Builder
	if err := tb.WriteASCII(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	// Header and data rows must align: "value" column starts at the same
	// offset in both.
	if strings.Index(lines[0], "value") != strings.Index(lines[2], "1") {
		t.Errorf("columns not aligned:\n%s", sb.String())
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := New("My Title", "a", "b")
	tb.AddRow("x", 2.5)
	var sb strings.Builder
	if err := tb.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "### My Title") ||
		!strings.Contains(out, "| a | b |") ||
		!strings.Contains(out, "|---|---|") ||
		!strings.Contains(out, "| x | 2.5 |") {
		t.Errorf("markdown output wrong:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := New("", "name", "note")
	tb.AddRow(`say "hi"`, "a,b")
	tb.AddRow("plain", "line\nbreak")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"say ""hi""","a,b"`) {
		t.Errorf("CSV quoting wrong:\n%s", out)
	}
	if !strings.Contains(out, "\"line\nbreak\"") {
		t.Errorf("newline quoting wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "name,note\n") {
		t.Errorf("missing header:\n%s", out)
	}
}

func TestWriterFor(t *testing.T) {
	tb := New("T", "a", "b")
	tb.AddRow("x", 2.5)
	for format, method := range map[string]func(*Table, io.Writer) error{
		"text": (*Table).WriteASCII, "csv": (*Table).WriteCSV, "markdown": (*Table).WriteMarkdown,
	} {
		write, err := WriterFor(format)
		if err != nil {
			t.Fatalf("WriterFor(%q): %v", format, err)
		}
		var got, want strings.Builder
		if err := write(tb, &got); err != nil {
			t.Fatal(err)
		}
		if err := method(tb, &want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("WriterFor(%q) rendered:\n%s\nwant:\n%s", format, got.String(), want.String())
		}
	}
	if _, err := WriterFor("xml"); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("WriterFor(\"xml\") err = %v, want unknown format", err)
	}
}

func TestTableCellAccessors(t *testing.T) {
	tb := New("", "a", "b")
	tb.AddRow(1) // short row padded
	tb.AddRow(1, 2, 3)
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	if tb.Cell(0, 1) != "" {
		t.Errorf("padded cell = %q", tb.Cell(0, 1))
	}
	if tb.Cell(1, 1) != "2" {
		t.Errorf("cell = %q", tb.Cell(1, 1))
	}
	if tb.Cell(5, 0) != "" || tb.Cell(0, 9) != "" {
		t.Error("out-of-range cells should be empty")
	}
}

func TestFloatTrimming(t *testing.T) {
	cases := map[float64]string{
		1.5:    "1.5",
		2.0:    "2",
		0.8649: "0.8649",
		3.25:   "3.25",
	}
	for in, want := range cases {
		if got := formatCell(in); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPlotBasic(t *testing.T) {
	p := NewPlot("Figure 4.1", "processors", "speedup")
	if err := p.Add(Series{Label: "WO 5%", X: []float64{1, 10, 20}, Y: []float64{0.85, 5.2, 5.6}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(Series{Label: "WO+1 5%", X: []float64{1, 10, 20}, Y: []float64{0.87, 6.2, 6.6}}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := p.WriteASCII(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 4.1", "WO 5%", "WO+1 5%", "x: processors, y: speedup", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestPlotErrors(t *testing.T) {
	p := NewPlot("", "", "")
	var sb strings.Builder
	if err := p.WriteASCII(&sb); err == nil {
		t.Error("empty plot should error")
	}
	if err := p.Add(Series{Label: "bad", X: []float64{1}, Y: []float64{1, 2}}); err == nil {
		t.Error("mismatched series accepted")
	}
	if err := p.Add(Series{Label: "nan", X: []float64{1}, Y: []float64{strNaN()}}); err == nil {
		t.Error("NaN series accepted")
	}
}

func strNaN() float64 {
	var zero float64
	return zero / zero
}

func TestPlotConstantSeries(t *testing.T) {
	p := NewPlot("flat", "x", "y")
	if err := p.Add(Series{Label: "c", X: []float64{1, 2}, Y: []float64{3, 3}}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := p.WriteASCII(&sb); err != nil {
		t.Fatalf("constant series should render: %v", err)
	}
}

func TestPlotMarkersAssigned(t *testing.T) {
	p := NewPlot("", "", "")
	for i := 0; i < 10; i++ {
		if err := p.Add(Series{Label: "s", X: []float64{0, 1}, Y: []float64{0, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range p.series {
		if s.Marker == 0 {
			t.Errorf("series %d has no marker", i)
		}
	}
}
