package sim

import (
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
)

func TestCountermeasureValidation(t *testing.T) {
	cfg := smallCfg(60)
	cfg.PatchRate = -1
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for negative patch rate")
	}
	cfg = smallCfg(60)
	cfg.ImmunizeRate = -1
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for negative immunize rate")
	}
}

func TestPatchingEndsUncontainedOutbreak(t *testing.T) {
	// Null defense plus patching: the stochastic SIR. Every infected
	// host is eventually patched, so the run drains without a horizon.
	cfg := smallCfg(61)
	cfg.Defense = defense.Null{}
	cfg.PatchRate = 0.5 // mean 2 s infectious period at 10 scans/s
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Extinct {
		t.Error("patched outbreak should end")
	}
	if res.Patched != res.TotalInfected {
		t.Errorf("patched %d != infected %d at extinction", res.Patched, res.TotalInfected)
	}
	if res.TotalRemoved != res.TotalInfected {
		t.Errorf("removed %d != infected %d", res.TotalRemoved, res.TotalInfected)
	}
}

func TestHeavyPatchingSuppressesOutbreak(t *testing.T) {
	// R0 < 1 via patching alone: infection rate per host ≈
	// 10·(2000/65536) = 0.305/s; patch rate 3/s ⇒ R0 ≈ 0.1.
	cfg := smallCfg(62)
	cfg.Defense = defense.Null{}
	cfg.PatchRate = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInfected > 50 {
		t.Errorf("heavily patched outbreak infected %d, want early die-out", res.TotalInfected)
	}
}

func TestImmunizationShrinksOutbreak(t *testing.T) {
	// Same worm, with and without immunization pressure, fixed horizon.
	base := smallCfg(63)
	base.Defense = defense.Null{}
	base.Horizon = 20 * time.Second
	base.MaxInfected = 2000
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	immunized := smallCfg(63)
	immunized.Defense = defense.Null{}
	immunized.Horizon = 20 * time.Second
	immunized.MaxInfected = 2000
	immunized.ImmunizeRate = 0.2 // mean 5 s to immunity per susceptible
	res, err := Run(immunized)
	if err != nil {
		t.Fatal(err)
	}
	if res.Immunized == 0 {
		t.Fatal("no hosts immunized")
	}
	if res.TotalInfected >= plain.TotalInfected {
		t.Errorf("immunization did not shrink the outbreak: %d vs %d",
			res.TotalInfected, plain.TotalInfected)
	}
	// Conservation: infected + immunized never exceeds V.
	if res.TotalInfected+res.Immunized > 2000 {
		t.Errorf("infected %d + immunized %d exceeds V", res.TotalInfected, res.Immunized)
	}
}

func TestImmunizedHostsCannotBeInfected(t *testing.T) {
	// Immunize everything almost instantly; with I0 = 5 seeds the worm
	// should infect (almost) nobody else.
	cfg := smallCfg(64)
	cfg.Defense = defense.Null{}
	cfg.Horizon = 10 * time.Second
	cfg.ImmunizeRate = 1000 // mean 1 ms
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInfected > cfg.I0+3 {
		t.Errorf("worm infected %d despite immediate immunization", res.TotalInfected)
	}
	if res.Immunized < 1900 {
		t.Errorf("immunized %d of 1995 susceptibles", res.Immunized)
	}
}

func TestCountermeasuresPastMaxTimeNeverFire(t *testing.T) {
	// Rates this low draw delays past des.MaxTime (about 292 years),
	// which a time.Duration cannot hold: converted, they go negative
	// and the kernel panics. Such events are not scheduled: the run
	// completes, and those hosts are never patched or immunized.
	cfg := smallCfg(67)
	cfg.PatchRate = 1e-12    // mean ~31 700 years: nearly every draw is past MaxTime
	cfg.ImmunizeRate = 1e-11 // mean ~3 170 years: about one draw in eleven is not
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Extinct || res.Truncated {
		t.Errorf("extinct %v, truncated %v: want a drained run", res.Extinct, res.Truncated)
	}
	if res.Immunized == 0 || res.TotalInfected+res.Immunized >= cfg.V {
		t.Errorf("immunized %d, infected %d of V=%d: want the in-range draws to fire and the rest never",
			res.Immunized, res.TotalInfected, cfg.V)
	}
}

func TestScanObserverSeesDeliveredScans(t *testing.T) {
	cfg := smallCfg(65)
	var observed uint64
	var lastTime time.Duration
	cfg.ScanObserver = func(src, dst addr.IP, at time.Duration) {
		observed++
		if at < lastTime {
			t.Error("observer timestamps went backwards")
		}
		lastTime = at
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if observed != res.Delivered {
		t.Errorf("observer saw %d scans, delivered %d", observed, res.Delivered)
	}
	if observed == 0 {
		t.Error("no scans observed")
	}
}

func TestScanObserverExcludesDropped(t *testing.T) {
	// Under the M-limit the removing attempt is dropped, not delivered:
	// the observer must not see it.
	cfg := smallCfg(66)
	var observed uint64
	cfg.ScanObserver = func(_, _ addr.IP, _ time.Duration) { observed++ }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if observed != res.Delivered || res.Dropped == 0 {
		t.Errorf("observed %d, delivered %d, dropped %d",
			observed, res.Delivered, res.Dropped)
	}
}
