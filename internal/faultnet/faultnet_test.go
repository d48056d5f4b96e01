package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// scriptOps drives an injector through a fixed operation sequence and
// returns the resulting schedule. It exercises decide directly so the
// replay assertion is about the schedule itself, not socket behavior.
func scriptOps(in *Injector, n int) string {
	ops := []Op{opDial, opRead, opWrite}
	for i := 0; i < n; i++ {
		in.decide(ops[i%len(ops)])
	}
	return in.TraceString()
}

// chaosProfile enables every fault kind at once.
func chaosProfile() Profile {
	return Profile{
		DialFail:    0.3,
		Reset:       0.15,
		Latency:     0.3,
		LatencyLow:  time.Microsecond,
		LatencyHigh: 5 * time.Microsecond,
		ShortWrite:  0.2,
		Stall:       0.1,
		StallFor:    time.Microsecond,
		Corrupt:     0.2,
	}
}

func TestReplaySameSeedByteIdentical(t *testing.T) {
	const seed = 1905
	a := scriptOps(New(chaosProfile(), seed), 600)
	b := scriptOps(New(chaosProfile(), seed), 600)
	if a != b {
		t.Fatal("same seed and op sequence produced different schedules")
	}
	if !strings.Contains(a, "dialfail") || !strings.Contains(a, "reset") {
		t.Errorf("schedule did not exercise faults:\n%.300s", a)
	}
	c := scriptOps(New(chaosProfile(), seed+1), 600)
	if a == c {
		t.Error("different seeds produced identical schedules")
	}
}

func TestDecideDrawCountIndependence(t *testing.T) {
	// The schedule must be a function of the op sequence alone: an
	// all-faults profile and a no-faults profile consume the same number
	// of stream values per op, so a shared tail stays aligned. Verify by
	// scripting a prefix under different profiles, then comparing the
	// tail drawn under identical profiles and seeds.
	mk := func(p Profile) *Injector { return New(p, 42) }
	a, b := mk(chaosProfile()), mk(Profile{})
	for i := 0; i < 50; i++ {
		a.decide(opRead)
		b.decide(opRead)
	}
	// After identical op counts, the underlying streams are aligned:
	// the next decision under a shared profile must match.
	ea := a.decide(opWrite)
	eb := b.decide(opWrite)
	if ea.Seq != eb.Seq {
		t.Fatalf("streams misaligned: seq %d vs %d", ea.Seq, eb.Seq)
	}
}

func TestParseProfileRoundTrip(t *testing.T) {
	p, err := ParseProfile("dialfail=0.1, reset=0.05,latency=0.2,latency-low=2ms,latency-high=8ms,shortwrite=0.1,stall=0.02,stall-for=150ms,corrupt=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if p.DialFail != 0.1 || p.Reset != 0.05 || p.LatencyLow != 2*time.Millisecond ||
		p.LatencyHigh != 8*time.Millisecond || p.StallFor != 150*time.Millisecond || p.Corrupt != 0.01 {
		t.Errorf("parsed = %+v", p)
	}
	back, err := ParseProfile(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.DialFail != p.DialFail || back.ShortWrite != p.ShortWrite || back.Stall != p.Stall {
		t.Errorf("round trip = %+v, want %+v", back, p)
	}
	if empty, err := ParseProfile("  "); err != nil || empty != (Profile{}) {
		t.Errorf("empty profile = %+v, %v", empty, err)
	}
}

func TestParseProfileErrors(t *testing.T) {
	for _, bad := range []string{
		"dialfail", "dialfail=x", "dialfail=1.5", "dialfail=-0.1",
		"latency-low=oops", "latency-low=-1ms", "unknown=0.5",
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) succeeded", bad)
		}
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	in := New(Profile{}, 7)
	for i := 0; i < 500; i++ {
		for _, op := range []Op{opDial, opRead, opWrite} {
			if e := in.decide(op); e.Fault != faultNone {
				t.Fatalf("zero profile injected %v on %v", e.Fault, op)
			}
		}
	}
	if got := in.countsByName()["none"]; got != 1500 {
		t.Errorf("clean passes = %d, want 1500", got)
	}
}

func TestDialFailAndWrapping(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()

	in := New(Profile{DialFail: 0.5}, 3)
	dial := in.Dial(func(network, address string) (net.Conn, error) {
		return net.DialTimeout(network, address, time.Second)
	})
	var failed, succeeded int
	for i := 0; i < 64; i++ {
		conn, err := dial("tcp", ln.Addr().String())
		if err != nil {
			var inj *InjectedError
			if !errors.As(err, &inj) || inj.Fault != faultDialFail {
				t.Fatalf("unexpected dial error: %v", err)
			}
			if inj.Timeout() || !inj.Temporary() {
				t.Error("injected errors should be temporary non-timeouts")
			}
			failed++
			continue
		}
		// The wrapped conn still moves bytes with a clean schedule tail.
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		succeeded++
	}
	if failed == 0 || succeeded == 0 {
		t.Errorf("failed=%d succeeded=%d, want both > 0", failed, succeeded)
	}
	if in.countsByName()["dialfail"] != uint64(failed) {
		t.Errorf("counts = %v, want dialfail=%d", in.countsByName(), failed)
	}
}

func TestConnFaults(t *testing.T) {
	// Deterministic pipe: server echoes. High fault rates so every kind
	// fires within a bounded number of operations.
	in := New(Profile{
		Reset:       0.2,
		ShortWrite:  0.3,
		Corrupt:     0.3,
		Latency:     0.3,
		LatencyLow:  time.Microsecond,
		LatencyHigh: 2 * time.Microsecond,
	}, 11)
	var slept int
	in.SetSleep(func(time.Duration) { slept++ })

	msg := []byte("the quick brown fox jumps over the lazy dog")
	var sawReset, sawShort, sawCorrupt bool
	for i := 0; i < 200 && !(sawReset && sawShort && sawCorrupt); i++ {
		client, server := net.Pipe()
		fc := in.conn(client)
		go func() {
			buf := make([]byte, len(msg))
			n, err := server.Read(buf)
			if err == nil {
				_, _ = server.Write(buf[:n])
			}
			server.Close()
		}()
		n, err := fc.Write(msg)
		var inj *InjectedError
		switch {
		case errors.As(err, &inj) && inj.Fault == faultReset:
			sawReset = true
			fc.Close()
			continue
		case errors.As(err, &inj) && inj.Fault == faultShortWrite:
			if n <= 0 || n >= len(msg) {
				t.Fatalf("short write wrote %d of %d", n, len(msg))
			}
			sawShort = true
			fc.Close()
			continue
		case err != nil:
			t.Fatal(err)
		}
		buf := make([]byte, len(msg))
		rn, err := io.ReadAtLeast(fc, buf, 1)
		if err == nil && !bytes.Equal(buf[:rn], msg[:rn]) {
			sawCorrupt = true
		}
		fc.Close()
	}
	if !sawReset || !sawShort || !sawCorrupt {
		t.Errorf("faults seen: reset=%v short=%v corrupt=%v", sawReset, sawShort, sawCorrupt)
	}
	_ = slept // informational: the loop above may exit before latency fires
}

func TestLatencyAndStallSleep(t *testing.T) {
	in := New(Profile{Latency: 1, LatencyLow: 3 * time.Millisecond, LatencyHigh: 7 * time.Millisecond}, 2)
	var slept []time.Duration
	in.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	client, server := net.Pipe()
	defer server.Close()
	fc := in.conn(client)
	go func() { _, _ = io.Copy(io.Discard, server) }()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	fc.Close()
	if len(slept) != 1 || slept[0] < 3*time.Millisecond || slept[0] > 7*time.Millisecond {
		t.Errorf("slept = %v, want one delay in [3ms, 7ms]", slept)
	}

	st := New(Profile{Stall: 1, StallFor: 50 * time.Millisecond}, 2)
	var stalls []time.Duration
	st.SetSleep(func(d time.Duration) { stalls = append(stalls, d) })
	c2, s2 := net.Pipe()
	defer s2.Close()
	fc2 := st.conn(c2)
	go func() { _, _ = s2.Write([]byte("y")) }()
	if _, err := fc2.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	fc2.Close()
	if len(stalls) != 1 || stalls[0] != 50*time.Millisecond {
		t.Errorf("stalls = %v, want exactly [50ms]", stalls)
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := New(Profile{Reset: 1}, 5) // every op resets
	ln := in.listener(inner)
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		_, err = conn.Read(make([]byte, 1))
		done <- err
	}()

	conn, err := net.DialTimeout("tcp", inner.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _ = conn.Write([]byte("x"))
	var inj *InjectedError
	if err := <-done; !errors.As(err, &inj) || inj.Fault != faultReset {
		t.Errorf("accepted conn read error = %v, want injected reset", err)
	}
}

func TestTraceBounded(t *testing.T) {
	in := New(Profile{}, 1)
	for i := 0; i < maxTrace+100; i++ {
		in.decide(opRead)
	}
	if got := len(in.Trace()); got != maxTrace {
		t.Errorf("trace length = %d, want capped at %d", got, maxTrace)
	}
}

func TestCountsString(t *testing.T) {
	in := New(Profile{DialFail: 1}, 9)
	in.decide(opDial)
	in.decide(opRead)
	if got := in.CountsString(); got != "dialfail=1 none=1" {
		t.Errorf("CountsString = %q", got)
	}
}

func TestDialOnlyLeavesConnUnwrapped(t *testing.T) {
	in := New(Profile{DialFail: 0.5}, 11)
	var fails, passes int
	dial := in.DialOnly(func(network, address string) (net.Conn, error) {
		client, server := net.Pipe()
		server.Close()
		return client, nil
	})
	for i := 0; i < 100; i++ {
		conn, err := dial("tcp", "unused:1")
		if err != nil {
			var inj *InjectedError
			if !errors.As(err, &inj) || inj.Fault != faultDialFail {
				t.Fatalf("unexpected error %v", err)
			}
			fails++
			continue
		}
		if _, wrapped := conn.(*faultConn); wrapped {
			t.Fatal("DialOnly wrapped the connection")
		}
		conn.Close()
		passes++
	}
	if fails == 0 || passes == 0 {
		t.Errorf("fails=%d passes=%d, want both > 0 at p=0.5", fails, passes)
	}
	// Only dial draws happened: the trace must hold exactly the 100
	// dial events, nothing from the connections' lifecycle.
	if got := len(in.Trace()); got != 100 {
		t.Errorf("trace length = %d, want 100", got)
	}
}
