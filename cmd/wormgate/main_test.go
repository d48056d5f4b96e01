package main

import (
	"errors"
	"net"
	"os"
	"path/filepath"
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

// exactFactory builds the default factory runServe would assemble for
// -limiter=exact with the given config.
func exactFactory(cfg core.LimiterConfig) func(time.Time) (core.Backend, error) {
	return func(start time.Time) (core.Backend, error) {
		return core.NewLimiter(cfg, start)
	}
}

func TestLimiterStatePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	factory := exactFactory(core.LimiterConfig{M: 3, Cycle: time.Hour})

	fresh, err := loadOrCreateLimiter(path, factory)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Observe(7, 1, time.Now())
	fresh.Observe(7, 2, time.Now())
	if err := saveLimiter(fresh, path); err != nil {
		t.Fatal(err)
	}

	restored, err := loadOrCreateLimiter(path, factory)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.(*core.Limiter).DistinctCount(7); got != 2 {
		t.Errorf("restored count = %d, want 2", got)
	}
}

// TestSketchStatePersistence round-trips a sketch snapshot through the
// legacy -state path: the saved file must restore into a sketch backend
// even when the restoring process asked for -limiter=exact, because the
// snapshot's backend byte wins.
func TestSketchStatePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	scfg := core.SketchConfig{
		LimiterConfig: core.LimiterConfig{M: 100, Cycle: time.Hour},
		Bits:          128,
	}
	fresh, err := loadOrCreateLimiter(path, func(start time.Time) (core.Backend, error) {
		return core.NewSketchLimiter(scfg, start)
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Observe(7, 1, time.Now())
	if err := saveLimiter(fresh, path); err != nil {
		t.Fatal(err)
	}
	restored, err := loadOrCreateLimiter(path, exactFactory(core.LimiterConfig{M: 3, Cycle: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.(*core.SketchLimiter); !ok {
		t.Fatalf("restored %T, want *core.SketchLimiter (snapshot backend wins)", restored)
	}
}

func TestLoadOrCreateLimiterBadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}
	factory := exactFactory(core.LimiterConfig{M: 1, Cycle: time.Hour})
	if _, err := loadOrCreateLimiter(path, factory); err == nil {
		t.Error("expected error for corrupt state file")
	}
	// A -state file from before the binary codec is refused by name,
	// never silently replaced by a fresh limiter.
	if err := os.WriteFile(path, []byte(`{"version":1,"m":1,"cycleMillis":3600000,"hosts":[]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadOrCreateLimiter(path, factory); !errors.Is(err, core.ErrLegacySnapshot) {
		t.Errorf("legacy JSON state file: err = %v, want ErrLegacySnapshot", err)
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
		{"state and state-dir", []string{"serve", "-state", "x.json", "-state-dir", dir}, "mutually exclusive"},
		{"unknown limiter", []string{"serve", "-limiter", "bloom"}, "-limiter"},
		{"sketch flags without sketch", []string{"serve", "-sketch-bits", "128"}, "-limiter=sketch"},
		{"fail threshold without sketch", []string{"serve", "-fail-threshold", "50"}, "-limiter=sketch"},
		{"non power-of-two bits", []string{"serve", "-limiter", "sketch", "-sketch-bits", "100"}, "power of two"},
		{"bits too narrow for m", []string{"serve", "-limiter", "sketch", "-m", "5000", "-sketch-bits", "64"}, "cannot resolve"},
		{"bad fail mode", []string{"serve", "-fail-mode", "sideways"}, "fail mode"},
		{"zero ring vnodes", []string{"serve", "-ring-vnodes", "0"}, "-ring-vnodes"},
		{"negative ring vnodes", []string{"serve", "-ring-vnodes", "-8"}, "-ring-vnodes"},
		{"zero alert fanout", []string{"serve", "-alert-fanout", "0"}, "-alert-fanout"},
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
		{"zero report spool", []string{"serve", "-collector", "127.0.0.1:7700", "-report-spool", "0"}, "-report-spool"},
		{"negative report spool", []string{"serve", "-collector", "127.0.0.1:7700", "-report-spool", "-1"}, "-report-spool"},
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
