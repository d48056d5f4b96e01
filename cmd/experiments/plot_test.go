package main

import (
	"math"
	"strings"
	"testing"

	"wormcontain/internal/experiments"
)

func TestRenderEmpty(t *testing.T) {
	out := renderPlot("", nil)
	if !strings.Contains(out, "empty plot") {
		t.Errorf("output = %q", out)
	}
	// All-NaN series also counts as empty.
	out = renderPlot("", []experiments.Series{{Label: "nan", X: []float64{math.NaN()}, Y: []float64{1}}})
	if !strings.Contains(out, "empty plot") {
		t.Errorf("output = %q", out)
	}
}

func TestRenderBasicShape(t *testing.T) {
	s := experiments.Series{
		Label: "line",
		X:     []float64{0, 1, 2, 3},
		Y:     []float64{0, 1, 2, 3},
	}
	out := renderPlot("diag", []experiments.Series{s})
	if !strings.Contains(out, "diag") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "* line") {
		t.Error("legend missing")
	}
	lines := strings.Split(out, "\n")
	// Title + canvas rows + frame + x-range + legend.
	if len(lines) < plotHeight+4 {
		t.Fatalf("too few lines: %d\n%s", len(lines), out)
	}
	// Increasing series: the marker must appear in the top row (max)
	// and the bottom canvas row (min).
	if !strings.Contains(lines[1], "*") {
		t.Errorf("no point in top row: %q", lines[1])
	}
	if !strings.Contains(lines[plotHeight], "*") {
		t.Errorf("no point in bottom row: %q", lines[plotHeight])
	}
	// Axis extremes rendered.
	if !strings.Contains(out, "3") || !strings.Contains(out, "0") {
		t.Error("axis range missing")
	}
}

func TestRenderDeterministic(t *testing.T) {
	s := []experiments.Series{{Label: "x", X: []float64{0, 5, 10}, Y: []float64{2, 8, 4}}}
	a := renderPlot("", s)
	b := renderPlot("", s)
	if a != b {
		t.Error("render not deterministic")
	}
}

func TestRenderMultiSeriesMarkers(t *testing.T) {
	out := renderPlot("", []experiments.Series{
		{Label: "a", X: []float64{0, 1}, Y: []float64{0, 1}},
		{Label: "b", X: []float64{0, 1}, Y: []float64{1, 0}},
	})
	if !strings.Contains(out, "* a") || !strings.Contains(out, "+ b") {
		t.Errorf("legend markers wrong:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("canvas missing one of the markers")
	}
}

func TestRenderConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	s := experiments.Series{Label: "flat", X: []float64{1, 1, 1}, Y: []float64{5, 5, 5}}
	out := renderPlot("", []experiments.Series{s})
	if !strings.Contains(out, "*") {
		t.Errorf("flat series not plotted:\n%s", out)
	}
}

func TestRenderMismatchedLengths(t *testing.T) {
	// Extra X values beyond Y are ignored, not panicking.
	s := experiments.Series{Label: "ragged", X: []float64{0, 1, 2, 3, 4}, Y: []float64{1, 2}}
	out := renderPlot("", []experiments.Series{s})
	if !strings.Contains(out, "*") {
		t.Errorf("ragged series not plotted:\n%s", out)
	}
}

// TestRenderTinyCanvasClamped pins the canvas size: every chart is
// plotWidth × plotHeight, however few points it shows.
func TestRenderTinyCanvasClamped(t *testing.T) {
	s := experiments.Series{Label: "p", X: []float64{0, 1}, Y: []float64{0, 1}}
	lines := strings.Split(renderPlot("", []experiments.Series{s}), "\n")
	if len(lines) < plotHeight {
		t.Fatalf("%d lines, want a %d-row canvas", len(lines), plotHeight)
	}
	for _, row := range lines[:plotHeight] {
		if i := strings.Index(row, "|"); i < 0 || len(row)-i-1 != plotWidth {
			t.Errorf("canvas row %q is not %d wide", row, plotWidth)
		}
	}
}
