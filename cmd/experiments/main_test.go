package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleArtifact(t *testing.T) {
	if err := run([]string{"-id", "table1", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSummaryMode(t *testing.T) {
	if err := run([]string{"-id", "fig3", "-quick", "-summary"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("expected error without -id or -all")
	}
	if err := run([]string{"-id", "fig99"}); err == nil {
		t.Error("expected error for unknown artifact")
	}
	if err := run([]string{"-id", "fig3", "-all"}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-id with -all: err = %v, want the combination rejected", err)
	}
	if err := run([]string{"-id", "fig3", "-runs", "-3"}); err == nil || !strings.Contains(err.Error(), "-runs -3") {
		t.Errorf("-runs -3: err = %v, want the negative count rejected", err)
	}
	for _, w := range []string{"0", "-1"} {
		if err := run([]string{"-id", "fig3", "-workers", w}); err == nil || !strings.Contains(err.Error(), "-workers "+w) {
			t.Errorf("-workers %s: err = %v, want the worker count rejected", w, err)
		}
	}
}

func TestRunPlotMode(t *testing.T) {
	if err := run([]string{"-id", "fig3", "-quick", "-plot"}); err != nil {
		t.Fatal(err)
	}
}
