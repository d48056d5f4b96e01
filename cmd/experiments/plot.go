package main

import (
	"fmt"
	"math"
	"strings"

	"wormcontain/internal/experiments"
)

// markers assigns one glyph per series, cycling if there are more
// series than glyphs.
var markers = []byte{'*', '+', 'o', 'x', '#', '@'}

// The canvas is plotWidth × plotHeight characters.
const (
	plotWidth  = 72
	plotHeight = 20
)

// renderPlot draws the series as one ASCII chart with shared axes,
// under title, so -plot shows the paper's figures in a terminal. It is
// pure string construction: same series, same bytes. Series with no
// finite points are skipped. An empty input produces an empty-plot
// message rather than an error: rendering is best-effort display code.
func renderPlot(title string, series []experiments.Series) string {
	// Find the data range over finite points.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			points++
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if points == 0 {
		return "(empty plot: no finite data points)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	// Paint the canvas.
	canvas := make([][]byte, plotHeight)
	for r := range canvas {
		canvas[r] = []byte(strings.Repeat(" ", plotWidth))
	}
	for si, s := range series {
		marker := markers[si%len(markers)]
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			col := int(math.Round((x - minX) / (maxX - minX) * float64(plotWidth-1)))
			row := plotHeight - 1 - int(math.Round((y-minY)/(maxY-minY)*float64(plotHeight-1)))
			canvas[row][col] = marker
		}
	}

	// Assemble: title, y-axis labels on first/last rows, frame, x range,
	// legend.
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	yTop := fmt.Sprintf("%.4g", maxY)
	yBot := fmt.Sprintf("%.4g", minY)
	gutter := len(yTop)
	if len(yBot) > gutter {
		gutter = len(yBot)
	}
	for r, rowBytes := range canvas {
		label := strings.Repeat(" ", gutter)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", gutter, yTop)
		case plotHeight - 1:
			label = fmt.Sprintf("%*s", gutter, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(rowBytes))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", gutter), strings.Repeat("-", plotWidth))
	xLeft := fmt.Sprintf("%.4g", minX)
	xRight := fmt.Sprintf("%.4g", maxX)
	pad := plotWidth - len(xLeft) - len(xRight)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", gutter), xLeft,
		strings.Repeat(" ", pad), xRight)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Label)
	}
	return b.String()
}
