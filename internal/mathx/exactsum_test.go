package mathx

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/rng"
)

// refSum is the test oracle for ExactSum: the sum of the finite xs in a
// big.Float wide enough to hold any float64 sum exactly (2^-1074 up to
// 2^(1024+64)), rounded once by big.Float to nearest-even.
func refSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(4096)
	var x big.Float
	for _, v := range xs {
		acc.Add(acc, x.SetFloat64(v))
	}
	f, _ := acc.Float64()
	return f
}

func exactSumOf(xs []float64) float64 {
	var s ExactSum
	for _, x := range xs {
		s.Add(x)
	}
	return s.Float64()
}

// randTerms draws n finite terms with random signs and mantissas and
// exponent fields within width of center (clamped to the finite
// range, subnormals included), so carries, cancellation and ties in
// the last place all occur.
func randTerms(g *rng.RNG, n, center, width int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		e := center - width + g.Intn(2*width+1)
		e = max(0, min(e, 2046))
		mant := uint64(g.Intn(1 << 52))
		if g.Intn(4) == 0 {
			mant &^= 1<<40 - 1 // short mantissas make exact ties likely
		}
		sign := uint64(g.Intn(2))
		xs[i] = math.Float64frombits(sign<<63 | uint64(e)<<52 | mant)
	}
	return xs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestExactSumMatchesBigFloat(t *testing.T) {
	g := rng.New(11)
	for trial := 0; trial < 400; trial++ {
		center := []int{0, 1, 53, 1000, 1023, 2000, 2046}[trial%7]
		width := []int{0, 2, 60, 2046}[trial%4]
		xs := randTerms(g, 1+g.Intn(200), center, width)
		if got, want := exactSumOf(xs), refSum(xs); !sameBits(got, want) {
			t.Fatalf("trial %d (center %d, width %d): ExactSum = %v (%#x), big.Float = %v (%#x)",
				trial, center, width, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestExactSumPermutationInvariant(t *testing.T) {
	g := rng.New(12)
	for trial := 0; trial < 100; trial++ {
		xs := randTerms(g, 2+g.Intn(100), 1023, 60)
		want := exactSumOf(xs)
		g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		if got := exactSumOf(xs); !sameBits(got, want) {
			t.Fatalf("trial %d: permuted sum %v, original %v", trial, got, want)
		}
	}
}

func TestExactSumAddSubRestores(t *testing.T) {
	g := rng.New(13)
	var s ExactSum
	for _, x := range randTerms(g, 50, 1020, 30) {
		s.Add(x)
	}
	var before big.Int
	before.Set(&s.units)
	wantF := s.Float64()
	for _, x := range randTerms(g, 200, 1023, 1023) {
		s.Add(x)
		s.Sub(x)
		if s.units.Cmp(&before) != 0 || !sameBits(s.Float64(), wantF) {
			t.Fatalf("Add(%v) then Sub(%v) left %v, want %v", x, x, s.Float64(), wantF)
		}
	}
}

func TestExactSumEdgeCases(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	minNormal := 0x1p-1022
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"negative zeros sum to +0", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, 0},
		{"cancellation is +0", []float64{0.1, -0.1}, 0},
		{"0.1+0.2 rounds once", []float64{0.1, 0.2}, 0.30000000000000004},
		{"subnormals add exactly", []float64{tiny, tiny, tiny}, 3 * tiny},
		{"subnormals carry into normal", []float64{minNormal - tiny, tiny}, minNormal},
		{"tie rounds to even (down)", []float64{1, 0x1p-53}, 1},
		{"tie rounds to even (up)", []float64{1 + 0x1p-52, 0x1p-53}, 1 + 0x1p-51},
		{"sticky bit breaks the tie", []float64{1, 0x1p-53, tiny}, 1 + 0x1p-52},
		{"tail cancels below one ulp", []float64{1, 0x1p-60, -0x1p-60}, 1},
		{"MaxFloat64 plus tiny", []float64{math.MaxFloat64, tiny}, math.MaxFloat64},
		{"MaxFloat64 cancels", []float64{math.MaxFloat64, -math.MaxFloat64, 2}, 2},
		{"overflow rounds to +Inf", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{"overflow rounds to -Inf", []float64{-math.MaxFloat64, -math.MaxFloat64}, math.Inf(-1)},
		{"intermediate overflow cancels", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64},
		{"mixed exponents", []float64{0x1p1000, 1, -0x1p1000, 0x1p-1000}, 1},
	}
	for _, tc := range cases {
		if got := exactSumOf(tc.xs); !sameBits(got, tc.want) {
			t.Errorf("%s: ExactSum(%v) = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
		if !math.IsInf(tc.want, 0) {
			if ref := refSum(tc.xs); !sameBits(ref, tc.want) {
				t.Errorf("%s: oracle disagrees with the table: %v vs %v", tc.name, ref, tc.want)
			}
		}
	}
}

func TestExactSumNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"+Inf", []float64{1, inf, -3}, inf},
		{"-Inf", []float64{-inf, math.MaxFloat64}, -inf},
		{"repeated +Inf", []float64{inf, inf}, inf},
		{"both infinities", []float64{inf, 1, -inf}, nan},
		{"NaN", []float64{1, nan}, nan},
		{"NaN beside Inf", []float64{inf, nan}, nan},
	}
	for _, tc := range cases {
		got := exactSumOf(tc.xs)
		if math.IsNaN(tc.want) != math.IsNaN(got) || !math.IsNaN(got) && !sameBits(got, tc.want) {
			t.Errorf("%s: ExactSum(%v) = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
	}
	var s ExactSum
	s.Add(inf)
	s.Sub(inf) // ∞ − ∞
	if !math.IsNaN(s.Float64()) {
		t.Errorf("Add(+Inf) then Sub(+Inf) = %v, want NaN", s.Float64())
	}
	s.Reset()
	if s.Add(2); s.Float64() != 2 {
		t.Errorf("after Reset, Add(2) = %v", s.Float64())
	}
}

func TestExactSumSetSum(t *testing.T) {
	g := rng.New(14)
	xs := randTerms(g, 40, 1020, 40)
	ys := randTerms(g, 40, 1020, 40)
	var x, y, s ExactSum
	for i := range xs {
		x.Add(xs[i])
		y.Add(ys[i])
	}
	wantX, wantY := x.Float64(), y.Float64()
	s.Add(123) // SetSum overwrites
	s.SetSum(&x, &y)
	if got, want := s.Float64(), refSum(append(xs, ys...)); !sameBits(got, want) {
		t.Fatalf("SetSum = %v, want %v", got, want)
	}
	if !sameBits(x.Float64(), wantX) || !sameBits(y.Float64(), wantY) {
		t.Fatal("SetSum modified an operand")
	}
	y.Add(math.Inf(-1))
	if s.SetSum(&x, &y); !math.IsInf(s.Float64(), -1) {
		t.Fatalf("SetSum with a -Inf term = %v", s.Float64())
	}
}

func TestExactSumSetDiff(t *testing.T) {
	g := rng.New(15)
	xs := randTerms(g, 40, 1020, 40)
	ys := randTerms(g, 40, 1020, 40)
	var x, y, s ExactSum
	neg := make([]float64, len(ys))
	for i := range xs {
		x.Add(xs[i])
		y.Add(ys[i])
		neg[i] = -ys[i]
	}
	wantX, wantY := x.Float64(), y.Float64()
	s.Add(123) // SetDiff overwrites
	s.SetDiff(&x, &y)
	if got, want := s.Float64(), refSum(append(xs, neg...)); !sameBits(got, want) {
		t.Fatalf("SetDiff = %v, want %v", got, want)
	}
	if !sameBits(x.Float64(), wantX) || !sameBits(y.Float64(), wantY) {
		t.Fatal("SetDiff modified an operand")
	}
	// The difference of two rounded sums rounds twice; SetDiff once.
	var two, three ExactSum
	for _, v := range []float64{0.1, 0.7} {
		two.Add(v)
		three.Add(v)
	}
	three.Add(0.25)
	if s.SetDiff(&three, &two); s.Float64() != 0.25 || three.Float64()-two.Float64() == 0.25 {
		t.Fatalf("SetDiff = %v (rounded sums differ by %v), want exactly 0.25", s.Float64(), three.Float64()-two.Float64())
	}
	if s.SetDiff(&x, &x); s.Float64() != 0 {
		t.Fatalf("SetDiff(x, x) = %v, want 0", s.Float64())
	}
	y.Add(math.Inf(-1))
	if s.SetDiff(&x, &y); !math.IsInf(s.Float64(), 1) {
		t.Fatalf("SetDiff less a -Inf term = %v, want +Inf", s.Float64())
	}
	if s.SetDiff(&y, &y); !math.IsNaN(s.Float64()) {
		t.Fatalf("SetDiff of two -Inf sums = %v, want NaN", s.Float64())
	}
}

// TestExactSumAddDoesNotAllocate pins that a warm accumulator adds and
// subtracts without allocating: WAL recovery adds every committed
// charge of a tenant's history at boot.
func TestExactSumAddDoesNotAllocate(t *testing.T) {
	var s ExactSum
	s.Add(math.MaxFloat64)
	s.Sub(math.MaxFloat64)
	s.Add(0.02)
	allocs := testing.AllocsPerRun(100, func() {
		s.Add(0.005)
		s.Add(0.2)
		s.Sub(0.005)
		_ = s.Float64()
	})
	if allocs != 0 {
		t.Fatalf("warm Add/Sub/Float64 allocated %v times per run", allocs)
	}
}
