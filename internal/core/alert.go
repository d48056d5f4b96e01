package core

import (
	"cmp"
	"slices"
	"time"
)

// Fleet alerts: when one gateway shard removes a host, it broadcasts an
// Alert so every other shard denies that host too — the cooperative
// containment of Shakkottai/Srikant's patch-vs-worm race, where the
// defense must spread faster than the worm. Alerts are limiter inputs
// exactly like observations: applying one is journaled through the
// Journal hook and serialized into snapshots, so a crashed shard
// recovers its full immunization set and can re-serve it to peers.

// Alert is one removal decision disseminated across the fleet. The
// (Origin, Seq) pair identifies it globally: Origin is the originating
// gateway's hashed identity and Seq its per-origin sequence number,
// assigned contiguously from 1 — which is what lets peers summarize
// what they hold as one "contiguous max" per origin during anti-entropy
// sync.
type Alert struct {
	// Origin is the originating gateway's 64-bit identity hash.
	Origin uint64
	// Seq numbers the origin's alerts contiguously from 1.
	Seq uint64
	// Src is the removed host.
	Src uint32
	// UnixMs is the removal time at the origin, floored to the
	// millisecond like every journaled timestamp.
	UnixMs int64
}

// alertID is an alert's global identity, the dedup key.
type alertID struct {
	Origin uint64
	Seq    uint64
}

// id returns the alert's global identity.
func (a Alert) id() alertID { return alertID{Origin: a.Origin, Seq: a.Seq} }

// alertBook is the per-limiter alert ledger, written only with the
// owning limiter's world stopped (every stripe held). The ledger is
// cumulative across containment cycles: a cycle roll reinstates removed
// hosts (paper step 4) but must NOT forget which alerts were already
// applied, or stale gossip would re-remove every host each cycle.
type alertBook struct {
	alerts   map[alertID]Alert
	applied  int // == len(alerts); mirrors into Stats.TotalAlerts
	removals int // alert applications that newly removed a host
}

// apply records the alert if it is new, reporting whether it was.
func (b *alertBook) apply(a Alert) bool {
	if _, dup := b.alerts[a.id()]; dup {
		return false
	}
	if b.alerts == nil {
		b.alerts = make(map[alertID]Alert)
	}
	b.alerts[a.id()] = a
	b.applied++
	return true
}

// unsorted copies the ledger out in map order — the cheap half of a
// snapshot, done with the limiter locked; sortAlerts runs after it.
func (b *alertBook) unsorted() []Alert {
	out := make([]Alert, 0, len(b.alerts))
	for _, a := range b.alerts {
		out = append(out, a)
	}
	return out
}

// compareAlertIDs orders alerts by (Origin, Seq).
func compareAlertIDs(a, b Alert) int {
	if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// sortAlerts puts alerts in canonical (Origin, Seq) order. Application
// order differs between peers that heard the same alerts along
// different gossip paths, so every serialization and comparison uses
// this order instead.
func sortAlerts(alerts []Alert) { slices.SortFunc(alerts, compareAlertIDs) }

// restore rebuilds the ledger from a snapshot's alerts, whose IDs the
// decoder has already checked to be distinct.
func (b *alertBook) restore(alerts []Alert, removals int) {
	if len(alerts) > 0 {
		b.alerts = make(map[alertID]Alert, len(alerts))
	}
	for _, a := range alerts {
		b.alerts[a.id()] = a
	}
	b.applied = len(alerts)
	b.removals = removals
}

// ApplyAlert applies one fleet alert: if the alert is new, it is
// journaled, the containment cycle is rolled to contain the alert time,
// and the host is removed for the current cycle. An alert raised in an
// earlier cycle than the current one enters the ledger and removes
// nothing: its removal ended with the cycle it was raised in, as the
// origin's own did. It reports whether the alert was new — false means
// a duplicate, which changes nothing (the dedup that makes gossip
// idempotent). A fresh alert writes the ledger
// and may roll the cycle, so it is journaled and applied with every
// stripe held: every other record falls strictly before or after it,
// and WAL order equals apply order. A duplicate — the common case under
// gossip — is turned away under one stripe.
func (l *limiter[T, P]) ApplyAlert(a Alert) bool {
	s := l.stripeOf(a.Src)
	s.mu.Lock()
	_, dup := l.alerts.alerts[a.id()]
	s.mu.Unlock()
	if dup {
		return false
	}
	l.lockAll()
	defer l.unlockAll()
	if _, dup := l.alerts.alerts[a.id()]; dup {
		return false
	}
	if l.journal != nil {
		l.journal.RecordAlert(a)
	}
	at := time.UnixMilli(a.UnixMs).UTC()
	l.rollCycleLocked(at)
	l.alerts.apply(a)
	if !at.Before(l.epoch) && P(&s.hosts).alert(a.Src) {
		l.alerts.removals++
	}
	return true
}

// Alerts returns every alert the limiter has applied, in canonical
// (Origin, Seq) order — the immunization set a recovering fleet node
// reloads into its gossip state.
func (l *limiter[T, P]) Alerts() []Alert {
	s := &l.stripes[0] // the ledger is readable under any one stripe
	s.mu.Lock()
	out := l.alerts.unsorted()
	s.mu.Unlock()
	sortAlerts(out)
	return out
}
