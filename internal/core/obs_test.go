package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// TestRiskCacheHitRateThroughRegistry pins one risk-cache lookup per
// request through the metrics registry: a cold Fit misses once and never
// hits (its draw and certificate share the one vector), and the warm
// Certify on the same data hits once and never misses.
func TestRiskCacheHitRateThroughRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := classifierConfig(1)
	cfg.Parallel = parallel.Options{Workers: 1, Obs: &obs.Observer{Metrics: reg}}
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := dataset.LogisticModel{Weights: []float64{1.5}}
	d := model.Generate(64, rng.New(7))

	hits := reg.Counter("dplearn_risk_cache_hits_total", "")
	misses := reg.Counter("dplearn_risk_cache_misses_total", "")

	if _, err := l.Fit(d, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if h, m := hits.Value(), misses.Value(); h != 0 || m != 1 {
		t.Fatalf("cold Fit: %d hits + %d misses, want 0 + 1", h, m)
	}
	if _, err := l.Certify(d); err != nil {
		t.Fatal(err)
	}
	if h, m := hits.Value(), misses.Value(); h != 1 || m != 1 {
		t.Fatalf("cold Fit then warm Certify: %d hits + %d misses, want 1 + 1", h, m)
	}
}

// TestFitLedgersThroughAccountantObserver checks the release-site
// threading: a Fit with an observed accountant streams exactly one
// ledger line carrying the gibbs mechanism metadata, and the line's
// guarantee matches the accountant's composition bit-for-bit.
func TestFitLedgersThroughAccountantObserver(t *testing.T) {
	var buf bytes.Buffer
	clock := &obs.LogicalClock{}
	tracer := obs.NewTracer(&buf, clock)
	led := obs.NewLedger(tracer)
	var acct mechanism.Accountant
	acct.SetObserver(func(r mechanism.SpendRecord) {
		led.Record(obs.LedgerRecord{
			Seq:         r.Seq,
			Mechanism:   r.Meta.Mechanism,
			Sensitivity: r.Meta.Sensitivity,
			Epsilon:     r.Guarantee.Epsilon,
			Delta:       r.Guarantee.Delta,
			Outcomes:    r.Meta.Outcomes,
			Duration:    r.Meta.Duration,
			Span:        r.Meta.Span,
		})
	})

	cfg := classifierConfig(0.8)
	cfg.Acct = &acct
	cfg.Parallel = parallel.Options{Workers: 1, Obs: &obs.Observer{Tracer: tracer, Clock: clock}}
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := dataset.LogisticModel{Weights: []float64{1.5}}
	d := model.Generate(32, rng.New(9))
	if _, err := l.Fit(d, rng.New(2)); err != nil {
		t.Fatal(err)
	}

	if acct.Count() != 1 {
		t.Fatalf("accountant %d spends, want 1", acct.Count())
	}
	// The spend landed inside a live trace span tree, and the stream
	// carries its line.
	data, err := obs.ReadTraceNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Ledger) != 1 {
		t.Fatalf("trace stream carries %d ledger line(s), want 1", len(data.Ledger))
	}
	rec := data.Ledger[0]
	if rec.Mechanism != "gibbs" {
		t.Fatalf("mechanism %q, want gibbs", rec.Mechanism)
	}
	if rec.Outcomes != len(cfg.Thetas) {
		t.Fatalf("outcomes %d, want |Theta| = %d", rec.Outcomes, len(cfg.Thetas))
	}
	if rec.Sensitivity <= 0 || rec.Duration <= 0 || rec.Span == 0 {
		t.Fatalf("metadata not threaded: %+v", rec)
	}
	g := acct.BasicComposition()
	if g.Epsilon != rec.Epsilon || g.Delta != rec.Delta {
		t.Fatalf("accountant (%g,%g), streamed line (%g,%g) disagree",
			g.Epsilon, g.Delta, rec.Epsilon, rec.Delta)
	}
}
