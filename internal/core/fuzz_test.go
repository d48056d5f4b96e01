package core

import (
	"bytes"
	"testing"
	"time"
)

// FuzzLimiterSnapshotDecode feeds arbitrary bytes to the snapshot
// decoder. Required properties: never panic; the canonical-form rule —
// every accepted input re-encodes to exactly itself, so no two byte
// strings restore to the same state; and an accepted state is a working
// limiter, not just a serializable one.
func FuzzLimiterSnapshotDecode(f *testing.F) {
	// Small seeds: the fuzzer spends its time minimizing whatever new
	// coverage it finds, and a kilobyte seed eats a ten-second smoke run.
	f.Add(exactSpec().encode())
	f.Add(sketchSpecValid().encode())
	empty := exactSpec()
	empty.hostCount, empty.hosts, empty.alertCount, empty.alerts = 0, nil, 0, nil
	f.Add(empty.encode())
	for _, n := range spillBoundaryCounts { // 150 to 360 bytes each
		f.Add(spillBoundarySnapshot(f, n))
	}
	f.Add([]byte{})
	f.Add([]byte(`{"version":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			// A sketch host's registers run to 256 KiB and its slab to
			// a thousand times that; small inputs keep the fuzzer fast.
			return
		}
		l, err := RestoreAnyLimiter(data)
		if err != nil {
			return
		}
		if again := mustMarshal(t, l); !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\nin:  %x\nout: %x", data, again)
		}
		hdr, err := ReadSnapshotHeader(data)
		if err != nil || hdr.Hosts != l.Snapshot().ActiveHosts || hdr.Alerts != len(l.Alerts()) {
			t.Fatalf("header %+v (%v) disagrees with restored %+v", hdr, err, l.Snapshot())
		}
		at := epochOf(l)
		for i := uint32(0); i < 64; i++ {
			l.Observe(i%4, i, at)
			if fo, ok := l.(FailureObserver); ok {
				fo.ObserveFailure(i%4, i, at)
			}
		}
		l.Observe(1, 1, at.Add(l.Config().Cycle))
		l.Reinstate(1)
		l.ApplyAlert(Alert{Origin: 1, Seq: 1, Src: 2, UnixMs: at.Add(time.Hour).UnixMilli()})
		if _, err := RestoreAnyLimiter(mustMarshal(t, l)); err != nil {
			t.Fatalf("state reached from an accepted snapshot does not restore: %v", err)
		}
	})
}
