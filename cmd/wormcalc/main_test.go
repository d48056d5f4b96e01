package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins each subcommand's report byte for byte. The files were
// written by the four standalone commands wormcalc replaced.
func TestGolden(t *testing.T) {
	for _, args := range [][]string{
		{"boreltanner", "-kmax", "30"},
		{"extinction", "-gens", "5"},
		{"design"},
		{"tracegen", "-quick"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", args[0]+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v printed\n%s\nwant\n%s", args, out.Bytes(), want)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("expected usage error")
	}
	if err := run([]string{"plot"}, io.Discard); err == nil {
		t.Error("expected unknown-subcommand error")
	}
}

// expectErrors runs the subcommand on each argument list and fails for
// every one that succeeds, or that prints part of its report before
// failing.
func expectErrors(t *testing.T, cmd string, cases [][]string) {
	t.Helper()
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(append([]string{cmd}, args...), &out); err == nil {
			t.Errorf("%s %v succeeded, want error", cmd, args)
		} else if out.Len() > 0 {
			t.Errorf("%s %v printed %q before failing with %v", cmd, args, out.String(), err)
		}
	}
}

func TestBorelTannerDefaults(t *testing.T) {
	if err := runBorelTanner([]string{"-kmax", "30"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestBorelTannerSlammer(t *testing.T) {
	if err := runBorelTanner([]string{"-worm", "slammer", "-m", "5000", "-kmax", "20"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestBorelTannerDirectLambda(t *testing.T) {
	if err := runBorelTanner([]string{"-lambda", "0.83", "-i0", "10", "-kmax", "40"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// A set -lambda 0 is the degenerate law, not a fall-back to -worm.
	var out bytes.Buffer
	if err := runBorelTanner([]string{"-lambda", "0", "-i0", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.HasPrefix(got, "λ=0.000000 I0=10\nE[I]=10.00 ") {
		t.Errorf("-lambda 0 printed\n%s", got)
	}
}

func TestBorelTannerErrors(t *testing.T) {
	expectErrors(t, "boreltanner", [][]string{
		{"-worm", "blaster"},
		{"-lambda", "1.5"},
		{"-lambda", "-0.5"},
		{"-worm", "codered", "-m", "20000"}, // λ > 1: no proper distribution
		{"-kmax", "-5"},
		{"-kmax", "3"}, // below the default -i0 10: no row to print
		{"-lambda", "0.5", "-i0", "4", "-kmax", "3"},
	})
}

func TestExtinctionDefaults(t *testing.T) {
	if err := runExtinction(nil, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExtinctionSlammerCustomGens(t *testing.T) {
	if err := runExtinction([]string{"-worm", "slammer", "-gens", "5", "-m", "1000,2000"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExtinctionCustomPopulation(t *testing.T) {
	if err := runExtinction([]string{"-v", "500000", "-m", "8000", "-i0", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExtinctionErrors(t *testing.T) {
	expectErrors(t, "extinction", [][]string{
		{"-worm", "morris"},
		{"-m", "abc"},
		{"-m", "-5"},
		{"-v", "100", "-i0", "0"},
		{"-i0", "0"},
		{"-gens", "-1"},
		{"-v", "-5"},
	})
}

func TestExtinctionParseInts(t *testing.T) {
	got, err := parseInts(" 1, 2 ,3 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("1,,2"); err == nil {
		t.Error("expected error for empty element")
	}
}

func TestDesignCodeRedDefaults(t *testing.T) {
	if err := runDesign([]string{"-max-infected", "150", "-confidence", "0.95"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestDesignSlammerCustomTarget(t *testing.T) {
	if err := runDesign([]string{"-worm", "slammer", "-max-infected", "30",
		"-confidence", "0.99", "-check-fraction", "0.8"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestDesignCustomPopulation(t *testing.T) {
	if err := runDesign([]string{"-v", "250000", "-max-infected", "200"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestDesignErrors(t *testing.T) {
	expectErrors(t, "design", [][]string{
		{"-worm", "morris"},
		{"-max-infected", "0"},
		{"-max-infected", "5"}, // below the 10 initial infections
		{"-confidence", "1.5"},
		{"-check-fraction", "1.5"},
		{"-trace", "/nonexistent/file"},
		{"-v", "-5"},
	})
}

func TestTracegenGenerateAnalyzeInMemory(t *testing.T) {
	if err := runTracegen([]string{"-hosts", "100", "-quick", "-top", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestTracegenWriteThenRead(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.txt")
	if err := runTracegen([]string{"-hosts", "60", "-quick", "-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(out)
	if err != nil || info.Size() == 0 {
		t.Fatalf("trace file: %v (size %d)", err, info.Size())
	}
	if err := runTracegen([]string{"-in", out, "-top", "2", "-m", "100"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestTracegenErrors(t *testing.T) {
	expectErrors(t, "tracegen", [][]string{
		{"-in", "/nonexistent/file"},
		{"-hosts", "0"},
		{"-quick", "-top", "-1"},
		{"-quick", "-m", "-7"},
	})
}
