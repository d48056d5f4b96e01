package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogGammaKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{1, 0},                              // Γ(1) = 1
		{2, 0},                              // Γ(2) = 1
		{3, math.Log(2)},                    // Γ(3) = 2
		{4, math.Log(6)},                    // Γ(4) = 6
		{5, math.Log(24)},                   // Γ(5) = 24
		{0.5, math.Log(math.Sqrt(math.Pi))}, // Γ(1/2) = √π
		{11, math.Log(3628800)},             // Γ(11) = 10!
	}
	for _, c := range cases {
		got := logGamma(c.x)
		if math.Abs(got-c.want) > 1e-12*(1+math.Abs(c.want)) {
			t.Errorf("LogGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLogGammaRecurrence(t *testing.T) {
	// Γ(x+1) = x·Γ(x) ⇒ LogGamma(x+1) = LogGamma(x) + ln x.
	for _, x := range []float64{0.25, 0.9, 1.5, 3.7, 42.1, 170.3, 1e6} {
		lhs := logGamma(x + 1)
		rhs := logGamma(x) + math.Log(x)
		if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
			t.Errorf("recurrence broken at x = %v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestLogGammaPanicsOnNonPositive(t *testing.T) {
	for _, x := range []float64{0, -1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for x = %v", x)
				}
			}()
			logGamma(x)
		}()
	}
}

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		got := logFactorial(n)
		if math.Abs(got-math.Log(w)) > 1e-12*(1+math.Abs(got)) {
			t.Errorf("LogFactorial(%d) = %v, want ln %v", n, got, w)
		}
	}
}

func TestLogFactorialTableGammaAgreement(t *testing.T) {
	// Table values (exact running sums) and LogGamma must agree at the
	// table boundary and beyond.
	for _, n := range []int{150, 170, 171, 200, 10000} {
		got := logFactorial(n)
		want := logGamma(float64(n) + 1)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("LogFactorial(%d) = %v, LogGamma = %v", n, got, want)
		}
	}
}

func TestLogFactorialPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 0")
		}
	}()
	logFactorial(-1)
}

func TestLogChooseKnownValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10},
		{10, 0, 1},
		{10, 10, 1},
		{10, 5, 252},
		{52, 5, 2598960},
	}
	for _, c := range cases {
		got := logChoose(c.n, c.k)
		if math.Abs(got-math.Log(c.want)) > 1e-10*(1+math.Abs(got)) {
			t.Errorf("LogChoose(%d, %d) = %v, want ln %v", c.n, c.k, got, c.want)
		}
	}
}

func TestLogChooseOutOfRange(t *testing.T) {
	for _, c := range [][2]int{{5, -1}, {5, 6}, {0, 1}} {
		if got := logChoose(c[0], c[1]); !math.IsInf(got, -1) {
			t.Errorf("LogChoose(%d, %d) = %v, want -Inf", c[0], c[1], got)
		}
	}
}

// Property: symmetry C(n, k) = C(n, n−k).
func TestQuickLogChooseSymmetry(t *testing.T) {
	f := func(n, k uint8) bool {
		nn, kk := int(n), int(k)
		if kk > nn {
			nn, kk = kk, nn
		}
		a, b := logChoose(nn, kk), logChoose(nn, nn-kk)
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pascal's rule C(n+1, k) = C(n, k) + C(n, k−1) in log space.
func TestQuickPascalRule(t *testing.T) {
	f := func(n, k uint8) bool {
		nn, kk := int(n%60)+1, int(k)
		if kk > nn || kk < 1 {
			kk = nn / 2
			if kk < 1 {
				return true
			}
		}
		lhs := math.Exp(logChoose(nn+1, kk))
		rhs := math.Exp(logChoose(nn, kk)) + math.Exp(logChoose(nn, kk-1))
		return math.Abs(lhs-rhs) <= 1e-6*(1+rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
