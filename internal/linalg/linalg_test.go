package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/rng"
)

func randomMatrix(g *rng.RNG, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, g.Normal(0, 1))
		}
	}
	return m
}

func randomSPD(g *rng.RNG, n int) *Matrix {
	a := randomMatrix(g, n+3, n)
	spd := a.AtA()
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+0.5)
	}
	return spd
}

func vecAlmostEqual(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if !mathx.AlmostEqual(got[i], want[i], tol) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("dims")
	}
	if m.At(1, 2) != 6 {
		t.Error("At")
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set")
	}
	col := m.Col(1)
	vecAlmostEqual(t, col, []float64{2, 5}, 0, "Col")
	col[0] = 100
	if m.At(0, 1) == 100 {
		t.Error("Col should copy")
	}
}

func TestMatrixPanics(t *testing.T) {
	cases := []func(){
		func() { NewMatrix(0, 1) },
		func() { NewMatrixFrom(2, 2, []float64{1}) },
		func() { NewMatrix(2, 2).At(2, 0) },
		func() { NewMatrix(2, 2).At(0, -1) },
		func() { NewMatrix(2, 2).Mul(NewMatrix(3, 2)) },
		func() { NewMatrix(2, 2).MulVec([]float64{1}) },
		func() { NewMatrix(2, 2).Add(NewMatrix(2, 3)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatal("T dims")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("T values")
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	g := rng.New(3)
	a := randomMatrix(g, 4, 4)
	prod := a.Mul(Identity(4))
	if prod.Sub(a).MaxAbs() > 1e-14 {
		t.Error("A·I != A")
	}
	prod2 := Identity(4).Mul(a)
	if prod2.Sub(a).MaxAbs() > 1e-14 {
		t.Error("I·A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{5, 6, 7, 8})
	c := a.Mul(b)
	want := NewMatrixFrom(2, 2, []float64{19, 22, 43, 50})
	if c.Sub(want).MaxAbs() > 1e-14 {
		t.Errorf("Mul =\n%v", c)
	}
}

func TestMulVecAndTranspose(t *testing.T) {
	g := rng.New(5)
	a := randomMatrix(g, 5, 3)
	x := []float64{1, -2, 0.5}
	got := a.MulVec(x)
	want := a.Mul(NewMatrixFrom(3, 1, x))
	for i := range got {
		if !mathx.AlmostEqual(got[i], want.At(i, 0), 1e-12) {
			t.Fatal("MulVec mismatch")
		}
	}
	y := []float64{1, 2, 3, 4, 5}
	gotT := a.MulVecT(y)
	wantT := a.T().MulVec(y)
	vecAlmostEqual(t, gotT, wantT, 1e-12, "MulVecT")
}

func TestAtAMatchesExplicit(t *testing.T) {
	g := rng.New(7)
	a := randomMatrix(g, 6, 4)
	gram := a.AtA()
	explicit := a.T().Mul(a)
	if gram.Sub(explicit).MaxAbs() > 1e-12 {
		t.Error("AtA mismatch")
	}
	if !gram.IsSymmetric(1e-12) {
		t.Error("AtA not symmetric")
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	g := rng.New(11)
	a := randomSPD(g, 5)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	recon := l.Mul(l.T())
	if recon.Sub(a).MaxAbs() > 1e-10 {
		t.Errorf("LLᵀ != A, max err %v", recon.Sub(a).MaxAbs())
	}
}

func TestCholeskySolve(t *testing.T) {
	g := rng.New(13)
	a := randomSPD(g, 6)
	xTrue := []float64{1, -1, 2, 0.5, -3, 0}
	b := a.MulVec(xTrue)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEqual(t, x, xTrue, 1e-8, "SolveSPD")
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Errorf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{4, 0, 0, 9})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(c.LogDet(), math.Log(36), 1e-12) {
		t.Errorf("LogDet = %v", c.LogDet())
	}
}

func TestQRLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: LS solution is the exact solution.
	g := rng.New(19)
	a := randomMatrix(g, 4, 4)
	xTrue := []float64{2, -1, 0.5, 3}
	b := a.MulVec(xTrue)
	x, err := NewQR(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEqual(t, x, xTrue, 1e-9, "QR exact")
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 with noise-free data: recovery must be exact.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(5, 2)
	b := make([]float64, 5)
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 1 + 2*x
	}
	coef, err := NewQR(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEqual(t, coef, []float64{1, 2}, 1e-10, "line fit")
}

func TestQRNormalEquationsResidual(t *testing.T) {
	// The LS residual must be orthogonal to the column space: Aᵀ(Ax−b)=0.
	g := rng.New(23)
	a := randomMatrix(g, 10, 3)
	b := make([]float64, 10)
	for i := range b {
		b[i] = g.Normal(0, 1)
	}
	x, err := NewQR(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	normal := a.MulVecT(r)
	for i, v := range normal {
		if math.Abs(v) > 1e-10 {
			t.Errorf("normal equations residual[%d] = %v", i, v)
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := NewMatrixFrom(3, 2, []float64{1, 1, 2, 2, 3, 3})
	if _, err := NewQR(a).Solve([]float64{1, 2, 3}); err != ErrSingular {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestRidgeSolveShrinks(t *testing.T) {
	g := rng.New(29)
	a := randomMatrix(g, 20, 4)
	b := make([]float64, 20)
	for i := range b {
		b[i] = g.Normal(0, 1)
	}
	x0, err := RidgeSolve(a, b, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	xBig, err := RidgeSolve(a, b, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if mathx.L2Norm(xBig) >= mathx.L2Norm(x0) {
		t.Error("large lambda should shrink the solution")
	}
	if mathx.L2Norm(xBig) > 1e-3 {
		t.Errorf("huge lambda solution norm = %v", mathx.L2Norm(xBig))
	}
}

func TestRidgeMatchesLeastSquaresAtZero(t *testing.T) {
	g := rng.New(31)
	a := randomMatrix(g, 12, 3)
	b := make([]float64, 12)
	for i := range b {
		b[i] = g.Normal(0, 1)
	}
	xr, err := RidgeSolve(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	xq, err := NewQR(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEqual(t, xr, xq, 1e-7, "ridge@0 vs LS")
}

func TestSolversAgreeProperty(t *testing.T) {
	// Property: for random SPD systems, Cholesky and QR agree.
	g := rng.New(37)
	f := func(seed int64) bool {
		h := rng.New(seed)
		a := randomSPD(h, 4)
		b := []float64{h.Normal(0, 1), h.Normal(0, 1), h.Normal(0, 1), h.Normal(0, 1)}
		x1, err1 := SolveSPD(a, b)
		x2, err2 := NewQR(a).Solve(b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if !mathx.AlmostEqual(x1[i], x2[i], 1e-7) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: nil}
	_ = g
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{3, 0, 0, 4})
	if !mathx.AlmostEqual(m.FrobeniusNorm(), 5, 1e-12) {
		t.Errorf("FrobeniusNorm = %v", m.FrobeniusNorm())
	}
}

func TestScaleAddSub(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := a.Scale(2).Sub(a)
	if b.Sub(a).MaxAbs() > 1e-14 {
		t.Error("2A − A != A")
	}
	c := a.Add(a)
	if c.Sub(a.Scale(2)).MaxAbs() > 1e-14 {
		t.Error("A + A != 2A")
	}
}

func BenchmarkMul50(b *testing.B) {
	g := rng.New(1)
	x := randomMatrix(g, 50, 50)
	y := randomMatrix(g, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkCholesky50(b *testing.B) {
	g := rng.New(1)
	a := randomSPD(g, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}
