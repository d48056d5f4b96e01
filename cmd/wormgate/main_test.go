package main

import (
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/gateway"
)

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("expected usage error")
	}
	if err := run([]string{"dance"}); err == nil {
		t.Error("expected unknown-subcommand error")
	}
}

func TestProbeThroughInProcessGateway(t *testing.T) {
	// Upstream echo.
	upstream, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()
	go func() {
		for {
			c, err := upstream.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	lim, err := core.NewLimiter(core.LimiterConfig{M: 5, Cycle: time.Hour}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Limiter: lim,
		Dial: func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, upstream.Addr().String(), 5*time.Second)
		},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	defer gw.Shutdown()

	if err := run([]string{"probe", "-gateway", gw.Addr(),
		"-src", "10.0.0.1", "-dst", "203.0.113.9", "-port", "80",
		"-send", "ping"}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeErrors(t *testing.T) {
	if err := run([]string{"probe"}); err == nil {
		t.Error("expected error: missing -dst")
	}
	if err := run([]string{"probe", "-dst", "not-an-ip"}); err == nil {
		t.Error("expected error: bad dst")
	}
	if err := run([]string{"probe", "-src", "nope", "-dst", "1.2.3.4"}); err == nil {
		t.Error("expected error: bad src")
	}
}

// TestServeFlagValidation pins runServe's up-front flag rejection: bad
// durability intervals and bad limiter selections must fail fast with a
// clear error, before any listener or state directory is touched.
func TestServeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero snapshot interval", []string{"serve", "-state-dir", dir, "-snapshot-interval", "0s"}, "-snapshot-interval"},
		{"negative snapshot interval", []string{"serve", "-state-dir", dir, "-snapshot-interval", "-1m"}, "-snapshot-interval"},
		{"zero fsync interval", []string{"serve", "-state-dir", dir, "-fsync-interval", "0s"}, "-fsync-interval"},
		{"negative fsync interval", []string{"serve", "-state-dir", dir, "-fsync-interval", "-10ms"}, "-fsync-interval"},
		{"unknown limiter", []string{"serve", "-limiter", "bloom"}, "-limiter"},
		{"sketch flags without sketch", []string{"serve", "-sketch-bits", "128"}, "-limiter=sketch"},
		{"fail threshold without sketch", []string{"serve", "-fail-threshold", "50"}, "-limiter=sketch"},
		{"non power-of-two bits", []string{"serve", "-limiter", "sketch", "-sketch-bits", "100"}, "power of two"},
		{"bits too narrow for m", []string{"serve", "-limiter", "sketch", "-m", "5000", "-sketch-bits", "64"}, "cannot resolve"},
		{"bad fail mode", []string{"serve", "-fail-mode", "sideways"}, "fail mode"},
		{"peers without peer-listen", []string{"serve", "-peers", "127.0.0.1:9001,127.0.0.1:9002"}, "-peer-listen"},
		{"peer-listen without peers", []string{"serve", "-peer-listen", "127.0.0.1:9001"}, "-peers"},
		{"peer address missing port", []string{"serve", "-peer-listen", "127.0.0.1:9001",
			"-peers", "127.0.0.1:9001,10.0.0.2"}, "host:port"},
		{"empty peer member", []string{"serve", "-peer-listen", "127.0.0.1:9001",
			"-peers", "127.0.0.1:9001,,127.0.0.1:9002"}, "empty member"},
		{"duplicate peer member", []string{"serve", "-peer-listen", "127.0.0.1:9001",
			"-peers", "127.0.0.1:9001,127.0.0.1:9001"}, "duplicate member"},
		{"self not in membership", []string{"serve", "-peer-listen", "127.0.0.1:9009",
			"-peers", "127.0.0.1:9001,127.0.0.1:9002"}, "must appear in -peers"},
		{"fail threshold with peers", []string{"serve", "-limiter", "sketch", "-fail-threshold", "50",
			"-peer-listen", "a:1", "-peers", "a:1,b:2"}, "-fail-threshold and -fail-bits cannot be combined with -peers"},
		{"fail bits with peers", []string{"serve", "-limiter", "sketch", "-fail-bits", "64",
			"-peer-listen", "a:1", "-peers", "a:1,b:2"}, "-fail-threshold and -fail-bits cannot be combined with -peers"},
		{"zero report interval", []string{"serve", "-collector", "127.0.0.1:7700", "-report-interval", "0s"}, "-report-interval"},
		{"negative report interval", []string{"serve", "-collector", "127.0.0.1:7700", "-report-interval", "-1s"}, "-report-interval"},
		{"zero dial retries", []string{"serve", "-dial-retries", "0"}, "-dial-retries"},
		{"negative dial backoff", []string{"serve", "-dial-backoff", "-5s"}, "-dial-backoff"},
		{"zero gossip interval", []string{"serve", "-peer-listen", "127.0.0.1:9001",
			"-peers", "127.0.0.1:9001,127.0.0.1:9002", "-gossip-interval", "0s"}, "-gossip-interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) error %q, want it to mention %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestCollectFlagValidation pins runCollect's up-front flag rejection:
// a print period that time.NewTicker cannot take fails naming the flag,
// before the collector prints that it is listening.
func TestCollectFlagValidation(t *testing.T) {
	for _, period := range []string{"0", "-1s"} {
		args := []string{"collect", "-listen", "127.0.0.1:0", "-print-interval", period}
		var err error
		printed := captureStdout(t, func() { err = run(args) })
		if err == nil || !strings.Contains(err.Error(), "-print-interval") {
			t.Errorf("run(%v) error %v, want it to name -print-interval", args, err)
		}
		if printed != "" {
			t.Errorf("run(%v) printed %q before failing", args, printed)
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what f
// printed there.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
