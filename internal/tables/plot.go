package tables

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one labelled curve of a plot.
type Series struct {
	Label  string
	X      []float64
	Y      []float64
	Marker byte // rendering glyph; 0 picks automatically
}

// Plot is a terminal line plot, used to regenerate the paper's figures in
// ASCII alongside the CSV series.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot-area columns; 0 means 64
	Height int // plot-area rows; 0 means 20
	series []Series
}

// NewPlot creates an empty plot.
func NewPlot(title, xlabel, ylabel string) *Plot {
	return &Plot{Title: title, XLabel: xlabel, YLabel: ylabel}
}

var defaultMarkers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '~'}

// Add appends a series. X and Y must have equal non-zero length.
func (p *Plot) Add(s Series) error {
	if len(s.X) == 0 || len(s.X) != len(s.Y) {
		return fmt.Errorf("tables: series %q has mismatched lengths %d/%d", s.Label, len(s.X), len(s.Y))
	}
	for i := range s.X {
		if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.X[i], 0) || math.IsInf(s.Y[i], 0) {
			return fmt.Errorf("tables: series %q has non-finite point at %d", s.Label, i)
		}
	}
	if s.Marker == 0 {
		s.Marker = defaultMarkers[len(p.series)%len(defaultMarkers)]
	}
	p.series = append(p.series, s)
	return nil
}

// WriteASCII renders the plot with axes, tick labels and a legend.
func (p *Plot) WriteASCII(w io.Writer) error {
	if len(p.series) == 0 {
		return errors.New("tables: plot has no series")
	}
	width, height := p.Width, p.Height
	if width == 0 {
		width = 64
	}
	if height == 0 {
		height = 20
	}
	var xmin, xmax, ymin, ymax float64
	first := true
	for _, s := range p.series {
		for i := range s.X {
			if first {
				xmin, xmax = s.X[i], s.X[i]
				ymin, ymax = s.Y[i], s.Y[i]
				first = false
				continue
			}
			xmin, xmax = math.Min(xmin, s.X[i]), math.Max(xmax, s.X[i])
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
		}
	}
	// Degenerate (empty or single-valued) ranges get unit width so the
	// projection below never divides by zero.
	if !(xmin < xmax) {
		xmax = xmin + 1
	}
	if !(ymin < ymax) {
		ymax = ymin + 1
	}
	// Grow the y-range slightly so extremes are not clipped onto the axis.
	ymax += (ymax - ymin) * 0.05

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	plotPoint := func(x, y float64, m byte) {
		cx := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
		cy := int(math.Round((y - ymin) / (ymax - ymin) * float64(height-1)))
		row := height - 1 - cy
		if row >= 0 && row < height && cx >= 0 && cx < width {
			grid[row][cx] = m
		}
	}
	for _, s := range p.series {
		// Connect consecutive points with interpolated markers, then
		// overdraw the data points themselves.
		idx := make([]int, len(s.X))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
		for k := 0; k+1 < len(idx); k++ {
			x0, y0 := s.X[idx[k]], s.Y[idx[k]]
			x1, y1 := s.X[idx[k+1]], s.Y[idx[k+1]]
			steps := int(math.Abs((x1-x0)/(xmax-xmin))*float64(width)) + 1
			for st := 0; st <= steps; st++ {
				f := float64(st) / float64(steps)
				plotPoint(x0+(x1-x0)*f, y0+(y1-y0)*f, '.')
			}
		}
		for i := range s.X {
			plotPoint(s.X[i], s.Y[i], s.Marker)
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	yTop := fmt.Sprintf("%.3g", ymax)
	yBot := fmt.Sprintf("%.3g", ymin)
	lw := len(yTop)
	if len(yBot) > lw {
		lw = len(yBot)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", lw)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", lw, yTop)
		case height - 1:
			label = fmt.Sprintf("%*s", lw, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", lw), strings.Repeat("-", width))
	xLeft := fmt.Sprintf("%.3g", xmin)
	xRight := fmt.Sprintf("%.3g", xmax)
	gap := width - len(xLeft) - len(xRight)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", lw), xLeft, strings.Repeat(" ", gap), xRight)
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s, y: %s\n", strings.Repeat(" ", lw), p.XLabel, p.YLabel)
	}
	for _, s := range p.series {
		fmt.Fprintf(&b, "  %c %s\n", s.Marker, s.Label)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
