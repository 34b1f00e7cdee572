package mathx

// Native Go fuzz targets for the log-domain primitives that every
// posterior, mechanism, and channel computation funnels through. Each
// target checks algebraic invariants that must hold for arbitrary
// finite (and infinite) inputs; run the smoke pass with `make
// fuzz-smoke`.

import (
	"math"
	"testing"
)

// fuzzTol is the relative tolerance for comparisons against naive
// (unstable) reference computations in their safe range.
const fuzzTol = 1e-9

func anyNaN(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// FuzzLogAddExp checks that LogAddExp is commutative, bracketed by
// [max(a,b), max(a,b)+ln 2], monotone against +-Inf conventions, and
// agrees with the naive log(exp(a)+exp(b)) where that is stable.
func FuzzLogAddExp(f *testing.F) {
	f.Add(0.0, 0.0)
	f.Add(-1000.0, -1000.5)
	f.Add(700.0, 710.0)
	f.Add(math.Inf(-1), 3.0)
	f.Add(math.Inf(1), -2.0)
	f.Add(1e-308, -1e-308)
	f.Fuzz(func(t *testing.T, a, b float64) {
		if anyNaN(a, b) {
			t.Skip("NaN propagates by IEEE convention; nothing to check")
		}
		got := LogAddExp(a, b)
		if sym := LogAddExp(b, a); math.Float64bits(got) != math.Float64bits(sym) {
			t.Fatalf("not commutative: LogAddExp(%g,%g)=%g but LogAddExp(%g,%g)=%g", a, b, got, b, a, sym)
		}
		hi := math.Max(a, b)
		if math.IsInf(hi, 1) {
			if !math.IsInf(got, 1) {
				t.Fatalf("LogAddExp(%g,%g)=%g, want +Inf", a, b, got)
			}
			return
		}
		if math.IsInf(hi, -1) {
			if !math.IsInf(got, -1) {
				t.Fatalf("LogAddExp(-Inf,-Inf)=%g, want -Inf", got)
			}
			return
		}
		if got < hi || got > hi+math.Ln2+1e-12 {
			t.Fatalf("LogAddExp(%g,%g)=%g outside [max, max+ln2]=[%g,%g]", a, b, got, hi, hi+math.Ln2)
		}
		// Reference comparison where exp cannot overflow or flush to zero.
		if math.Abs(a) < 300 && math.Abs(b) < 300 {
			want := math.Log(math.Exp(a) + math.Exp(b))
			if math.Abs(got-want) > fuzzTol*math.Max(1, math.Abs(want)) {
				t.Fatalf("LogAddExp(%g,%g)=%g, naive=%g", a, b, got, want)
			}
		}
	})
}

// FuzzLogSumExp checks the bracketing max <= LSE <= max + log n,
// permutation insensitivity, consistency with pairwise LogAddExp, and
// the -Inf identity element.
func FuzzLogSumExp(f *testing.F) {
	f.Add(0.0, 0.0, 0.0)
	f.Add(-745.0, -746.0, -747.0)
	f.Add(700.0, -700.0, 0.0)
	f.Add(math.Inf(-1), math.Inf(-1), 5.0)
	f.Add(1e300, -1e300, 2.5)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		if anyNaN(a, b, c) {
			t.Skip("NaN propagates by IEEE convention; nothing to check")
		}
		xs := []float64{a, b, c}
		got := LogSumExp(xs)
		hi := math.Max(a, math.Max(b, c))
		if math.IsInf(hi, 1) {
			if !math.IsInf(got, 1) {
				t.Fatalf("LogSumExp(%v)=%g, want +Inf", xs, got)
			}
			return
		}
		if math.IsInf(hi, -1) {
			if !math.IsInf(got, -1) {
				t.Fatalf("LogSumExp(all -Inf)=%g, want -Inf", got)
			}
			return
		}
		if got < hi-1e-12 || got > hi+math.Log(3)+1e-12 {
			t.Fatalf("LogSumExp(%v)=%g outside [max, max+log3]=[%g,%g]", xs, got, hi, hi+math.Log(3))
		}
		// Permutation insensitivity (up to accumulation rounding).
		perm := LogSumExp([]float64{c, a, b})
		if math.Abs(got-perm) > 1e-9*math.Max(1, math.Abs(got)) {
			t.Fatalf("permutation changed LogSumExp: %g vs %g", got, perm)
		}
		// Pairwise consistency: LSE(a,b,c) ~ LogAddExp(LogAddExp(a,b),c).
		pair := LogAddExp(LogAddExp(a, b), c)
		if math.Abs(got-pair) > 1e-9*math.Max(1, math.Abs(got)) {
			t.Fatalf("LogSumExp(%v)=%g disagrees with pairwise %g", xs, got, pair)
		}
		// Dropping a -Inf entry must not change the value.
		if math.IsInf(c, -1) {
			two := LogSumExp([]float64{a, b})
			if math.Float64bits(got) != math.Float64bits(two) {
				t.Fatalf("-Inf entry changed LogSumExp: %g vs %g", got, two)
			}
		}
	})
}

// FuzzLogNormalize checks that the output is a normalized log
// distribution: entries are non-positive, equal to xs[i]-logZ, sum to
// one in the linear domain, and the all -Inf convention holds.
func FuzzLogNormalize(f *testing.F) {
	f.Add(0.0, 0.0, 0.0)
	f.Add(-1000.0, -1001.0, -999.5)
	f.Add(500.0, 499.0, -500.0)
	f.Add(math.Inf(-1), math.Inf(-1), math.Inf(-1))
	f.Add(0.1, 1e-9, -1e9)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		if anyNaN(a, b, c) {
			t.Skip("NaN propagates by IEEE convention; nothing to check")
		}
		if math.IsInf(a, 1) || math.IsInf(b, 1) || math.IsInf(c, 1) {
			t.Skip("+Inf mass has no normalized distribution")
		}
		xs := []float64{a, b, c}
		norm, logZ := LogNormalize(xs)
		if len(norm) != len(xs) {
			t.Fatalf("length changed: %d -> %d", len(xs), len(norm))
		}
		if math.IsInf(logZ, -1) {
			for i, v := range norm {
				if !math.IsInf(v, -1) {
					t.Fatalf("zero-mass input: norm[%d]=%g, want -Inf", i, v)
				}
			}
			return
		}
		var linSum float64
		for i, v := range norm {
			if v > 1e-12 {
				t.Fatalf("norm[%d]=%g > 0: a log-probability above one", i, v)
			}
			if want := xs[i] - logZ; !math.IsInf(v, -1) && math.Abs(v-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("norm[%d]=%g, want xs[i]-logZ=%g", i, v, want)
			}
			linSum += math.Exp(v)
		}
		if math.Abs(linSum-1) > 1e-9 {
			t.Fatalf("normalized mass sums to %g, want 1 (xs=%v)", linSum, xs)
		}
	})
}

// FuzzExactSum checks ExactSum against the big.Float oracle on finite
// terms, against the IEEE-754 rule on non-finite ones, and that the
// rounded sum ignores term order and survives an Add/Sub round trip
// bit for bit.
func FuzzExactSum(f *testing.F) {
	f.Add(0.1, 0.2, 0.3, 0.4)
	f.Add(1.0, 0x1p-53, 0x1p-1074, -1.0)
	f.Add(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, 1e-300)
	f.Add(math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1023, 0.0)
	f.Add(math.Inf(1), 1.0, math.Inf(-1), 2.0)
	f.Add(math.NaN(), 0.005, 0.2, 0.02)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		xs := []float64{a, b, c, d}
		got := exactSumOf(xs)
		var nan, pos, neg bool
		for _, x := range xs {
			nan = nan || math.IsNaN(x)
			pos = pos || math.IsInf(x, 1)
			neg = neg || math.IsInf(x, -1)
		}
		switch {
		case nan || pos && neg:
			if !math.IsNaN(got) {
				t.Fatalf("ExactSum(%v) = %v, want NaN", xs, got)
			}
			return
		case pos || neg:
			if !math.IsInf(got, 1) && pos || !math.IsInf(got, -1) && neg {
				t.Fatalf("ExactSum(%v) = %v, want the infinity", xs, got)
			}
			return
		}
		if want := refSum(xs); !sameBits(got, want) {
			t.Fatalf("ExactSum(%v) = %v, big.Float = %v", xs, got, want)
		}
		for _, p := range [][]float64{{d, c, b, a}, {c, a, d, b}} {
			if other := exactSumOf(p); !sameBits(other, got) {
				t.Fatalf("ExactSum(%v) = %v but ExactSum(%v) = %v", p, other, xs, got)
			}
		}
		var s ExactSum
		s.Add(a)
		s.Add(b)
		before := s.Float64()
		s.Add(c)
		s.Add(d)
		s.Sub(d)
		s.Sub(c)
		if after := s.Float64(); !sameBits(after, before) {
			t.Fatalf("Add/Sub round trip of %v, %v moved %v to %v", c, d, before, after)
		}
	})
}
