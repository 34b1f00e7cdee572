package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/mathx"
	"repro/internal/mechanism"
	"repro/internal/rng"
)

// budgetedLearner builds a classifier learner whose per-fit guarantee is
// exactly cfgEps, with the given accountant attached.
func budgetedLearner(t *testing.T, cfgEps float64, acct *mechanism.Accountant, policy DegradePolicy) (*Learner, *dataset.Dataset, *rng.RNG) {
	t.Helper()
	g := rng.New(7)
	model := dataset.LogisticModel{Weights: []float64{3}, Bias: 0}
	d := model.Generate(100, g)
	cfg := classifierConfig(cfgEps)
	cfg.Acct = acct
	cfg.Degrade = policy
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, d, g
}

// TestFitRejectsNonFiniteData pins the facade validation: NaN/Inf data,
// and finite data whose risk grid is not finite, fail typed in Fit and
// Certify alike, before any ε is spent.
func TestFitRejectsNonFiniteData(t *testing.T) {
	var acct mechanism.Accountant
	l, d, g := budgetedLearner(t, 1, &acct, DegradeRefuse)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dd := d.Clone()
		dd.Examples[3].X[0] = bad
		if _, err := l.Fit(dd, g); !errors.Is(err, ErrNonFiniteInput) {
			t.Fatalf("feature %v: want ErrNonFiniteInput, got %v", bad, err)
		}
		dd = d.Clone()
		dd.Examples[5].Y = bad
		if _, err := l.Fit(dd, g); !errors.Is(err, ErrNonFiniteInput) {
			t.Fatalf("label %v: want ErrNonFiniteInput, got %v", bad, err)
		}
	}
	// Finite rows at ±1e308: θ·x overflows to Inf − Inf = NaN, so a
	// clipped squared or absolute loss gives a NaN risk.
	huge := dataset.New([]dataset.Example{
		{X: []float64{1e308, -1e308}, Y: 1},
		{X: []float64{-1e308, 1e308}, Y: -1},
	})
	for _, loss := range []learn.Loss{
		learn.NewClippedLoss(learn.SquaredLoss{}, 4),
		learn.NewClippedLoss(learn.AbsoluteLoss{}, 1),
	} {
		hl, err := NewLearner(Config{Loss: loss, Thetas: learn.NewGrid(-2, 2, 2, 5).Thetas(), Epsilon: 1, Acct: &acct})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hl.Fit(huge, g); !errors.Is(err, ErrNonFiniteInput) {
			t.Fatalf("%s Fit on overflowing rows: want ErrNonFiniteInput, got %v", loss.Name(), err)
		}
		if _, err := hl.Certify(huge); !errors.Is(err, ErrNonFiniteInput) {
			t.Fatalf("%s Certify on overflowing rows: want ErrNonFiniteInput, got %v", loss.Name(), err)
		}
	}
	if acct.Count() != 0 || acct.Reserved() != 0 {
		t.Fatalf("ε charged for rejected input: Count=%d Reserved=%d", acct.Count(), acct.Reserved())
	}
}

// TestFitRefusePolicy pins budget enforcement under the default policy:
// the run stops before the over-budget release, typed, with nothing
// extra charged.
func TestFitRefusePolicy(t *testing.T) {
	var acct mechanism.Accountant
	l, d, g := budgetedLearner(t, 1, &acct, DegradeRefuse)
	if err := acct.SetBudget(fitGuarantee(t, l, d)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fit(d, g); err != nil {
		t.Fatalf("first fit must fit in budget: %v", err)
	}
	if _, err := l.Fit(d, g); !errors.Is(err, mechanism.ErrBudgetExhausted) {
		t.Fatalf("second fit: want ErrBudgetExhausted, got %v", err)
	}
	if acct.Count() != 1 || acct.Reserved() != 0 {
		t.Fatalf("over-budget fit charged: Count=%d Reserved=%d", acct.Count(), acct.Reserved())
	}
}

// fitGuarantee returns the learner's exact per-fit guarantee on d, so
// tests can size budgets to admit exactly one release.
func fitGuarantee(t *testing.T, l *Learner, d *dataset.Dataset) mechanism.Guarantee {
	t.Helper()
	est, err := l.Estimator(d.Len())
	if err != nil {
		t.Fatal(err)
	}
	return est.Guarantee(d.Len())
}

// TestFitFallbackPolicy pins DegradeFallback: the budget-refused fit
// re-releases the cached predictor (same θ, flagged Degraded) with no
// new ledger charge.
func TestFitFallbackPolicy(t *testing.T) {
	var acct mechanism.Accountant
	l, d, g := budgetedLearner(t, 1, &acct, DegradeFallback)
	if err := acct.SetBudget(fitGuarantee(t, l, d)); err != nil {
		t.Fatal(err)
	}
	first, err := l.Fit(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if first.Degraded {
		t.Fatal("first fit must not be degraded")
	}
	second, err := l.Fit(d, g)
	if err != nil {
		t.Fatalf("fallback fit: %v", err)
	}
	if !second.Degraded || second.Policy != DegradeFallback {
		t.Fatalf("fallback fit not flagged: %+v", second)
	}
	if second.Index != first.Index {
		t.Fatalf("fallback released a different predictor: %d vs %d", second.Index, first.Index)
	}
	if acct.Count() != 1 {
		t.Fatalf("fallback charged the ledger: Count=%d", acct.Count())
	}
	// Returned copy must not alias the cache.
	second.Theta[0] = 999
	third, err := l.Fit(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if third.Theta[0] == 999 {
		t.Fatal("fallback fit aliases the cached predictor")
	}
}

// TestFitFallbackWithoutCache pins that fallback with nothing cached
// degrades to a typed refusal.
func TestFitFallbackWithoutCache(t *testing.T) {
	var acct mechanism.Accountant
	l, d, g := budgetedLearner(t, 1, &acct, DegradeFallback)
	if err := acct.SetBudget(mechanism.Guarantee{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fit(d, g); !errors.Is(err, mechanism.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}

// TestFitWidenPolicy pins DegradeWiden: the refused fit recalibrates to
// the remaining budget, spends exactly it (bit-for-bit on the ledger),
// and a third fit with zero remaining is refused.
func TestFitWidenPolicy(t *testing.T) {
	var acct mechanism.Accountant
	var recs []mechanism.SpendRecord
	acct.SetObserver(func(r mechanism.SpendRecord) { recs = append(recs, r) })
	l, d, g := budgetedLearner(t, 2, &acct, DegradeWiden)
	full := fitGuarantee(t, l, d)
	budget := mechanism.Guarantee{Epsilon: 1.5 * full.Epsilon}
	if err := acct.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	first, err := l.Fit(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if first.Degraded {
		t.Fatal("first fit must not be degraded")
	}
	second, err := l.Fit(d, g)
	if err != nil {
		t.Fatalf("widened fit: %v", err)
	}
	if !second.Degraded || second.Policy != DegradeWiden {
		t.Fatalf("widened fit not flagged: %+v", second)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 ledger records, got %d", len(recs))
	}
	wantRem := budget.Epsilon - full.Epsilon
	if math.Float64bits(recs[1].Guarantee.Epsilon) != math.Float64bits(wantRem) {
		t.Fatalf("widened spend ε = %v, want exactly the remainder %v", recs[1].Guarantee.Epsilon, wantRem)
	}
	// The widened posterior is weaker: smaller λ.
	if second.Certificate.Lambda >= first.Certificate.Lambda {
		t.Fatalf("widened λ %v not below configured λ %v", second.Certificate.Lambda, first.Certificate.Lambda)
	}
	if _, err := l.Fit(d, g); !errors.Is(err, mechanism.ErrBudgetSpent) {
		t.Fatalf("third fit with zero remaining: want the final ErrBudgetSpent, got %v", err)
	}
	composed := acct.BasicComposition()
	if composed.Epsilon > budget.Epsilon {
		t.Fatalf("composed ε %v exceeds budget %v", composed.Epsilon, budget.Epsilon)
	}
}

// TestFitWidenRefusalUnderHold pins when a widen refusal is final: a
// hold that takes the remaining headroom refuses the widened fit, but
// not for good — once the hold is released the same fit widens into the
// remainder.
func TestFitWidenRefusalUnderHold(t *testing.T) {
	var acct mechanism.Accountant
	l, d, g := budgetedLearner(t, 2, &acct, DegradeWiden)
	full := fitGuarantee(t, l, d)
	if err := acct.SetBudget(mechanism.Guarantee{Epsilon: 1.5 * full.Epsilon}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fit(d, g); err != nil {
		t.Fatal(err)
	}
	rem, _ := acct.Remaining()
	hold, err := acct.Reserve(rem)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Fit(d, g)
	if !errors.Is(err, mechanism.ErrBudgetExhausted) || errors.Is(err, mechanism.ErrBudgetSpent) {
		t.Fatalf("widen under a hold: want a refusal that is not final, got %v", err)
	}
	hold.Release()
	if fit, err := l.Fit(d, g); err != nil || !fit.Degraded {
		t.Fatalf("widen after the hold's release: %+v, %v", fit, err)
	}
}

// TestFitWidenReleasesAtMostItsCharge pins DegradeWiden's bound over
// many (budget, spent, n): the widened fit is charged the remainder r
// (or one ulp less, when spent + r composes above the budget), the
// guarantee it releases — the certificate's ε — is at most r, and the
// books close. λ = r·n/(2M) alone can round so that 2λ·M/n lands above
// r. spent is drawn from (0, budget): where budget − spent is exact one
// charge of r closes the books to exactly zero; elsewhere at most one
// ulp of the budget stays open, and the fit never fails for want of
// half an ulp.
func TestFitWidenReleasesAtMostItsCharge(t *testing.T) {
	g := rng.New(24)
	model := dataset.LogisticModel{Weights: []float64{3}, Bias: 0}
	for i := 0; i < 300; i++ {
		n := 1 + g.Intn(1000)
		budget := 4 * (1 - g.Float64())
		spent := budget * g.Float64()
		if spent <= 0 || spent >= budget {
			continue
		}
		var acct mechanism.Accountant
		if err := acct.SetBudget(mechanism.Guarantee{Epsilon: budget}); err != nil {
			t.Fatal(err)
		}
		acct.Spend(mechanism.Guarantee{Epsilon: spent})
		r, _ := acct.Remaining()
		var residue mathx.ExactSum // budget − spent − r, exactly
		residue.Add(budget)
		residue.Sub(spent)
		residue.Sub(r.Epsilon)
		//dplint:ignore floateq an exact sum is zero exactly when budget − spent rounds to nothing
		exact := residue.Float64() == 0
		cfg := classifierConfig(2 * budget) // a full-price fit never fits the remainder
		cfg.Acct = &acct
		cfg.Degrade = DegradeWiden
		l, err := NewLearner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fit, err := l.Fit(model.Generate(n, g), g)
		if err != nil {
			t.Fatalf("case %d (budget=%v spent=%v n=%d): widened fit: %v", i, budget, spent, n, err)
		}
		if !fit.Degraded {
			t.Fatalf("case %d: fit not widened", i)
		}
		if eps := fit.Certificate.Privacy.Epsilon; eps > r.Epsilon {
			t.Fatalf("case %d (budget=%v spent=%v n=%d): released ε=%.17g above its charge r=%.17g", i, budget, spent, n, eps, r.Epsilon)
		}
		if composed := acct.BasicComposition().Epsilon; composed > budget {
			t.Fatalf("case %d (budget=%v spent=%v n=%d): books compose to %.17g, over the budget", i, budget, spent, n, composed)
		}
		rem, _ := acct.Remaining()
		//dplint:ignore floateq the widened charge must close the books exactly
		if exact && rem.Epsilon != 0 {
			t.Fatalf("case %d (budget=%v spent=%v n=%d): %.17g ε left after the widened fit", i, budget, spent, n, rem.Epsilon)
		}
		if ulp := math.Nextafter(budget, math.Inf(1)) - budget; rem.Epsilon > ulp {
			t.Fatalf("case %d (budget=%v spent=%v n=%d): %.17g ε left after the widened fit, over one ulp %.17g of the budget", i, budget, spent, n, rem.Epsilon, ulp)
		}
	}
}

// TestFitCtxCanceled pins that a canceled fit spends nothing and leaves
// no outstanding reservation.
func TestFitCtxCanceled(t *testing.T) {
	var acct mechanism.Accountant
	l, d, g := budgetedLearner(t, 1, &acct, DegradeRefuse)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.FitCtx(ctx, d, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if acct.Count() != 0 || acct.Reserved() != 0 {
		t.Fatalf("canceled fit charged: Count=%d Reserved=%d", acct.Count(), acct.Reserved())
	}
	if _, err := l.CertifyCtx(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("CertifyCtx: want context.Canceled, got %v", err)
	}
}

// TestParseDegradePolicy covers the CLI spellings.
func TestParseDegradePolicy(t *testing.T) {
	for in, want := range map[string]DegradePolicy{
		"":         DegradeRefuse,
		"refuse":   DegradeRefuse,
		"Fallback": DegradeFallback,
		" widen ":  DegradeWiden,
	} {
		got, err := ParseDegradePolicy(in)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseDegradePolicy("explode"); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown policy must be ErrBadConfig, got %v", err)
	}
	if DegradePolicy(42).String() == "" {
		t.Error("String on unknown policy")
	}
}
