package main

import (
	"bytes"
	"regexp"
	"testing"
)

// throughputRe finds the achieved rate in the campaign report.
var throughputRe = regexp.MustCompile(`: (\d+) conn/s`)

// TestSmokeThroughput runs a self-contained campaign (in-process
// gateway, discard upstream) and requires it to complete, report a
// rate and see no connection error. How high the rate is depends on
// what else the machine is doing; the repository benchmark's gate-conn
// workload measures it, this test does not.
func TestSmokeThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("load campaign skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := run([]string{"-rate", "2000", "-duration", "1s"}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	m := throughputRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no throughput line in report:\n%s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte("error=0")) {
		t.Errorf("campaign had errors:\n%s", out)
	}
	t.Logf("completed at %s conn/s", m[1])
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-rate", "0"},
		{"-duration", "0s"},
		{"-concurrency", "0"},
		{"-sources", "0"},
		{"-dst", "not-an-ip"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
