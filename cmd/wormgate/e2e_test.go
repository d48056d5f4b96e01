package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wormcontain/internal/durable"
	"wormcontain/internal/faultfs"
)

// TestHelperServe is not a test: it is the subprocess body for the
// end-to-end suite, re-executing this test binary as a real wormgate
// process that can be SIGKILLed.
func TestHelperServe(t *testing.T) {
	if os.Getenv("WORMGATE_E2E_HELPER") != "1" {
		t.Skip("helper process only")
	}
	args := strings.Split(os.Getenv("WORMGATE_E2E_ARGS"), "\x1f")
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serveProc is a wormgate serve subprocess with parsed endpoints.
type serveProc struct {
	cmd       *exec.Cmd
	gwAddr    string
	adminAddr string
	lines     chan string

	mu  sync.Mutex
	out bytes.Buffer
}

func (p *serveProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// startServe launches the helper and waits for both the admin and
// gateway listen lines.
func startServe(t *testing.T, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperServe$", "-test.v")
	cmd.Env = append(os.Environ(),
		"WORMGATE_E2E_HELPER=1",
		"WORMGATE_E2E_ARGS="+strings.Join(args, "\x1f"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, lines: make(chan string, 128)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			select {
			case p.lines <- line:
			default:
			}
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	deadline := time.After(30 * time.Second)
	for p.gwAddr == "" || p.adminAddr == "" {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("serve process exited before listening:\n%s", p.output())
			}
			if f := strings.Fields(line); len(f) >= 5 && f[0] == "gateway" && f[2] == "listening" {
				p.gwAddr = f[4]
			} else if len(f) >= 4 && f[0] == "admin" && f[1] == "endpoint" {
				p.adminAddr = strings.TrimPrefix(f[3], "http://")
			}
		case <-deadline:
			t.Fatalf("timed out waiting for serve to come up:\n%s", p.output())
		}
	}
	return p
}

// probe issues one raw WCP/1 request and returns the DENY reason (""
// when the relay was allowed). The gateway writes its containment
// verdict before dialing upstream, so "DENY upstream-unreachable"
// arrives as a second line after an OK — one reader must read both
// lines, or the buffered second line is lost.
func probe(t *testing.T, gwAddr string, src, dst string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", gwAddr, 10*time.Second)
	if err != nil {
		t.Fatalf("probe %s->%s: dial gateway: %v", src, dst, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "WCP/1 %s %s 1\n", src, dst); err != nil {
		t.Fatalf("probe %s->%s: send: %v", src, dst, err)
	}
	r := bufio.NewReader(conn)
	verdict, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("probe %s->%s: read verdict: %v", src, dst, err)
	}
	verdict = strings.TrimSpace(verdict)
	if reason, ok := strings.CutPrefix(verdict, "DENY "); ok {
		return reason
	}
	if verdict != "OK" && verdict != "CHECK" {
		t.Fatalf("probe %s->%s: unexpected verdict %q", src, dst, verdict)
	}
	// Allowed: the upstream dial outcome follows. EOF or silence means
	// the relay is live (or closed cleanly) — not a denial.
	second, err := r.ReadString('\n')
	if err == nil {
		if reason, ok := strings.CutPrefix(strings.TrimSpace(second), "DENY "); ok {
			return reason
		}
	}
	return ""
}

// TestE2EKillDashNineZeroRefund is the acceptance scenario: a gateway
// on -state-dir takes traffic (including a wormload burst), removes a
// host that exhausted its budget, dies by SIGKILL, and after restart
// the host is still removed with zero refunded scan budget — a new
// destination gets DENY scan-limit-exceeded, not a fresh allowance.
// It also checks wormgate fsck against the restarted gateway's
// recovery metrics: identical accounting.
func TestE2EKillDashNineZeroRefund(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e test")
	}
	dir := t.TempDir()
	serveArgs := []string{"serve",
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-m", "4", "-cycle", "1h", "-check-fraction", "0",
		"-state-dir", dir,
		"-fsync-interval", "2ms", "-snapshot-interval", "200ms",
		"-dial-retries", "1", "-dial-backoff", "1ms"}
	p := startServe(t, serveArgs...)

	// Host 10.9.9.9 burns its 4-destination budget. The 127.0.0.x
	// destinations refuse instantly (nothing listens), so each attempt
	// is DENY upstream-unreachable — budget consumed, host not removed.
	src := "10.9.9.9"
	for i := 2; i <= 5; i++ {
		if got := probe(t, p.gwAddr, src, fmt.Sprintf("127.0.0.%d", i)); got != "upstream-unreachable" {
			t.Fatalf("budget probe %d: reason %q, want upstream-unreachable", i, got)
		}
	}
	// Fifth distinct destination exceeds M=4: removal.
	if got := probe(t, p.gwAddr, src, "127.0.0.6"); got != "scan-limit-exceeded" {
		t.Fatalf("over-budget probe: reason %q, want scan-limit-exceeded", got)
	}

	// Background load from wormload while we kill the process.
	load := exec.Command("go", "run", "./cmd/wormload",
		"-gateway", p.gwAddr, "-rate", "300", "-duration", "2s",
		"-concurrency", "16", "-sources", "32", "-dst", "127.0.0.9", "-port", "1")
	load.Dir = "../.."
	load.Stdout = io.Discard
	load.Stderr = io.Discard
	if err := load.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = load.Process.Kill()
		_ = load.Wait()
	}()

	// Let some load flow and the 2ms group commits ack, then kill -9.
	time.Sleep(600 * time.Millisecond)
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = p.cmd.Process.Wait()

	// Offline audit of the surviving directory: the removed host's
	// removal must already be implied by the durable inputs.
	fsys, err := faultfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := durable.Inspect(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.RemovedHosts < 1 {
		t.Fatalf("post-kill state has no removed hosts: %+v", rep.Stats)
	}
	if rep.Fresh {
		t.Fatal("post-kill inspect reports fresh state")
	}

	// fsck, the CLI face of the same audit.
	var fsckOut bytes.Buffer
	if err := runFsck([]string{"-state-dir", dir}, &fsckOut); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !strings.Contains(fsckOut.String(), "recovery: snapshot generation") {
		t.Fatalf("fsck output missing recovery line:\n%s", fsckOut.String())
	}

	// Restart on the same directory: zero refund means the removed host
	// is denied for a NEVER-SEEN destination with scan-limit-exceeded.
	// A refunded budget would answer upstream-unreachable instead.
	p2 := startServe(t, serveArgs...)
	if got := probe(t, p2.gwAddr, src, "127.0.0.7"); got != "scan-limit-exceeded" {
		t.Fatalf("post-restart probe: reason %q, want scan-limit-exceeded (budget was refunded!)", got)
	}

	// fsck accounting == the restarted recovery's own metrics.
	metrics := fetchMetrics(t, p2.adminAddr)
	if got := metricFromText(t, metrics, "wormgate_recovery_replayed_records"); got != float64(rep.ReplayedRecords) {
		t.Fatalf("recovery_replayed_records = %v, fsck said %d", got, rep.ReplayedRecords)
	}
	if got := metricFromText(t, metrics, "wormgate_recovery_truncated_bytes"); got != float64(rep.TruncatedBytes) {
		t.Fatalf("recovery_truncated_bytes = %v, fsck said %d", got, rep.TruncatedBytes)
	}

	// Graceful shutdown of the second life.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, p2, 20*time.Second)
	if !strings.Contains(p2.output(), "durable state flushed") {
		t.Fatalf("graceful shutdown did not flush state:\n%s", p2.output())
	}
}

// TestE2EGracefulShutdownContinuesCycle is the satellite check: SIGTERM
// takes a final snapshot before exit, and a restart continues the SAME
// cycleIndex instead of starting cycle 0.
func TestE2EGracefulShutdownContinuesCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e test")
	}
	dir := t.TempDir()
	serveArgs := []string{"serve",
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-m", "100", "-cycle", "1s", "-check-fraction", "0",
		"-state-dir", dir,
		"-fsync-interval", "2ms", "-snapshot-interval", "10s",
		"-dial-retries", "1", "-dial-backoff", "1ms"}
	p := startServe(t, serveArgs...)

	probe(t, p.gwAddr, "10.1.1.1", "127.0.0.2")
	time.Sleep(1100 * time.Millisecond) // cross the 1s cycle boundary
	probe(t, p.gwAddr, "10.1.1.1", "127.0.0.3")

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, p, 20*time.Second)
	if !strings.Contains(p.output(), "durable state flushed") {
		t.Fatalf("no final flush on SIGTERM:\n%s", p.output())
	}

	// The restart's own recovery banner carries the continued cycle.
	p2 := startServe(t, serveArgs...)
	banner := ""
	for _, line := range strings.Split(p2.output(), "\n") {
		if strings.HasPrefix(line, "durable state: recovered") {
			banner = line
		}
	}
	if banner == "" {
		t.Fatalf("restart did not recover durable state:\n%s", p2.output())
	}
	var snapSeq, records, cycle, truncated int
	var fromDir string
	if _, err := fmt.Sscanf(banner,
		"durable state: recovered snapshot %d + %d WAL record(s) from %s (cycle %d, truncated %d byte(s))",
		&snapSeq, &records, &fromDir, &cycle, &truncated); err != nil {
		t.Fatalf("unparseable recovery banner %q: %v", banner, err)
	}
	if cycle < 1 {
		t.Fatalf("restart continued cycle %d, want >= 1 (cycle position lost)", cycle)
	}
	if records != 0 || truncated != 0 {
		t.Fatalf("graceful shutdown left %d records to replay, %d truncated bytes; want 0/0", records, truncated)
	}
	_ = p.cmd.Process.Kill()
}

// TestE2ESketchGaugesBehindFleetNode serves with the sketch backend as
// a fleet member, so the gateway's limiter is the fleet node and not
// the backend: the estimator's gauges must be on /metrics all the same,
// and count the host the probe went through.
func TestE2ESketchGaugesBehindFleetNode(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e test")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := ln.Addr().String()
	ln.Close()
	p := startServe(t, "serve",
		"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-limiter", "sketch", "-m", "100", "-check-fraction", "0",
		"-peers", self, "-peer-listen", self,
		"-dial-retries", "1", "-dial-backoff", "1ms")
	if got := probe(t, p.gwAddr, "10.2.2.2", "127.0.0.2"); got != "upstream-unreachable" {
		t.Fatalf("probe: reason %q, want upstream-unreachable", got)
	}
	text := fetchMetrics(t, p.adminAddr)
	if got := metricFromText(t, text, "wormgate_sketch_tracked_hosts"); got != 1 {
		t.Errorf("wormgate_sketch_tracked_hosts = %v behind a fleet node, want 1", got)
	}
	for _, name := range []string{"wormgate_sketch_register_bytes", "wormgate_sketch_bytes_per_host", "wormgate_sketch_expected_relative_error"} {
		if metricFromText(t, text, name) <= 0 {
			t.Errorf("%s is not positive behind a fleet node", name)
		}
	}
}

func waitExit(t *testing.T, p *serveProc, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	// Wait for stdout EOF first: cmd.Wait closes the pipe, and calling
	// it while the scanner goroutine is mid-read can discard the final
	// shutdown lines the caller is about to assert on.
	for drained := false; !drained; {
		select {
		case _, ok := <-p.lines:
			drained = !ok
		case <-deadline:
			t.Fatalf("process did not close stdout in %v:\n%s", timeout, p.output())
		}
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-deadline:
		t.Fatalf("process did not exit in %v:\n%s", timeout, p.output())
	}
}

func fetchMetrics(t *testing.T, adminAddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func metricFromText(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v); err != nil {
				t.Fatalf("unparseable metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, text)
	return 0
}
