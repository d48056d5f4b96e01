package main

import (
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/durable"
)

// Shared by gate-conn and decide-stream.

// epoch is the limiters' start and the timestamp of every observation
// fed straight to a limiter: no cycle ever rolls inside a run.
var epoch = time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)

// limiterConfig is the issue's M=5000, f=0.9. At -quick scale M
// shrinks with the stream so that scanners still reach it.
func limiterConfig(b *bench) core.LimiterConfig {
	return core.LimiterConfig{M: b.scaled(5000), Cycle: 365 * 24 * time.Hour, CheckFraction: 0.9}
}

// openStore opens a durable store with the exact backend and a 10 ms
// group commit on dir.
func openStore(b *bench, dir *ramFS) (*durable.Store, error) {
	return durable.Open(durable.Options{FS: dir, FsyncInterval: 10 * time.Millisecond}, limiterConfig(b), epoch)
}

// verdicts counts decisions.
type verdicts struct{ allow, check, deny int }

func (v *verdicts) add(d core.Decision) {
	switch d {
	case core.Allow:
		v.allow++
	case core.AllowAndCheck:
		v.check++
	default:
		v.deny++
	}
}

func (v verdicts) plus(o verdicts) verdicts {
	return verdicts{v.allow + o.allow, v.check + o.check, v.deny + o.deny}
}

func (v verdicts) total() int { return v.allow + v.check + v.deny }

// referenceVerdicts feeds every slice to a fresh core.Limiter, once,
// and returns for each list of prefix lengths (one length per slice)
// the verdict totals of those prefixes. A source lives in one slice
// only, so one limiter per slice, each on its own goroutine, decides
// exactly as one shared limiter would.
func referenceVerdicts(cfg core.LimiterConfig, slices [][]obs, prefixes ...[]int) []verdicts {
	at := make([][]verdicts, len(slices)) // [slice][prefix list]
	var wg sync.WaitGroup
	for g := range slices {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			at[g] = make([]verdicts, len(prefixes))
			longest := 0
			for _, p := range prefixes {
				longest = max(longest, p[g])
			}
			lim := must1(core.NewLimiter(cfg, epoch))
			var v verdicts
			for i, o := range slices[g][:longest] {
				v.add(lim.Observe(o.src, o.dst, epoch))
				for k, p := range prefixes {
					if p[g] == i+1 {
						at[g][k] = v
					}
				}
			}
		}(g)
	}
	wg.Wait()
	out := make([]verdicts, len(prefixes))
	for g := range at {
		for k := range out {
			out[k] = out[k].plus(at[g][k])
		}
	}
	return out
}

// newestSnapshot returns the size of the highest-numbered snap-*
// generation in a durable state directory.
func newestSnapshot(dir *ramFS) float64 {
	names, _ := dir.List() // sorted; a ramFS lists without error
	for i := len(names) - 1; i >= 0; i-- {
		if strings.HasPrefix(names[i], "snap-") && !strings.HasSuffix(names[i], ".tmp") {
			return float64(dir.size(names[i]))
		}
	}
	return 0
}

// persistence is the part gate-conn and decide-stream share: write
// `rounds` snapshots of the live store, then open `rounds` copies of
// the state directory as a restarting process would. Each copy is
// opened once, because Open itself publishes a new generation.
type persistence struct {
	snapshotS, snapshotMBps []float64
	snapshotBytes           float64
	openS                   []float64
}

func (b *bench) snapshots(store *durable.Store, dir *ramFS, rounds int, p *persistence) {
	for i := 0; i < rounds; i++ {
		runtime.GC() // not in the middle of the timed call
		id := b.tr.start(0, "durable.Store.WriteSnapshot")
		var err error
		s := seconds(func() { err = store.WriteSnapshot() })
		p.snapshotBytes = newestSnapshot(dir)
		b.tr.end(id, "bytes", p.snapshotBytes)
		if b.op(err) {
			p.snapshotS = append(p.snapshotS, s)
			p.snapshotMBps = append(p.snapshotMBps, p.snapshotBytes/1e6/s)
		}
	}
}

// reopen opens `rounds` copies of image and checks each recovered
// limiter against want and the replay count against wantReplayed.
func (b *bench) reopen(image *ramFS, rounds int, want core.Stats, wantReplayed int, p *persistence) {
	for i := 0; i < rounds; i++ {
		dir := image.clone()
		runtime.GC() // not in the middle of the timed call
		id := b.tr.start(0, "durable.Open")
		var st *durable.Store
		var err error
		s := seconds(func() { st, err = openStore(b, dir) })
		if !b.op(err) {
			b.tr.end(id)
			continue
		}
		info := st.Recovery()
		b.tr.end(id, "replayed_records", float64(info.ReplayedRecords))
		p.openS = append(p.openS, s)
		b.check(st.Limiter().Snapshot() == want, "%s: recovered limiter %+v differs from the one that wrote the image %+v", b.workload, st.Limiter().Snapshot(), want)
		b.check(info.ReplayedRecords == wantReplayed, "%s: recovery replayed %d records, %d were appended after the last snapshot", b.workload, info.ReplayedRecords, wantReplayed)
		b.check(!info.Fresh && info.TruncatedBytes == 0, "%s: recovery of a synced image reports %+v", b.workload, info)
		must(st.Close())
	}
}

// discardConn is the upstream of cmd/wormload's self-contained mode: a
// server that swallows writes and never speaks, so a connection costs
// the gateway its own work and nothing else.
type discardConn struct {
	closed chan struct{}
	once   sync.Once
}

func discardDial(network, address string) (net.Conn, error) {
	return &discardConn{closed: make(chan struct{})}, nil
}

func (c *discardConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *discardConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
		return len(p), nil
	}
}

func (c *discardConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *discardConn) LocalAddr() net.Addr                { return discardAddr{} }
func (c *discardConn) RemoteAddr() net.Addr               { return discardAddr{} }
func (c *discardConn) SetDeadline(t time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(t time.Time) error { return nil }

type discardAddr struct{}

func (discardAddr) Network() string { return "discard" }
func (discardAddr) String() string  { return "discard" }
