package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/mechanism"
)

// errBadRequest marks malformed request payloads; the HTTP layer maps
// it (like core.ErrBadConfig and core.ErrNonFiniteInput) to 400.
var errBadRequest = errors.New("serve: bad request")

// errUnknownTenant marks requests addressing a tenant the registry does
// not hold; mapped to 404.
var errUnknownTenant = errors.New("serve: unknown tenant")

// DataJSON is the wire form of a dataset: feature rows plus optional
// labels (required for fit/certify/select, ignored by the density and
// summary releases).
type DataJSON struct {
	X [][]float64 `json:"x"`
	Y []float64   `json:"y,omitempty"`
}

// dataset converts the wire form, enforcing rectangular rows and a
// label per row when labels are present. Finiteness is NOT checked
// here — the facade's ErrNonFiniteInput validation owns that, before
// any ε is spent.
func (dj *DataJSON) dataset() (*dataset.Dataset, error) {
	if len(dj.X) == 0 {
		return nil, fmt.Errorf("%w: empty dataset", errBadRequest)
	}
	if len(dj.Y) != 0 && len(dj.Y) != len(dj.X) {
		return nil, fmt.Errorf("%w: %d rows but %d labels", errBadRequest, len(dj.X), len(dj.Y))
	}
	dim := len(dj.X[0])
	if dim == 0 {
		return nil, fmt.Errorf("%w: empty feature row", errBadRequest)
	}
	d := &dataset.Dataset{Examples: make([]dataset.Example, len(dj.X))}
	for i, row := range dj.X {
		if len(row) != dim {
			return nil, fmt.Errorf("%w: row %d has %d features, row 0 has %d", errBadRequest, i, len(row), dim)
		}
		var y float64
		if len(dj.Y) != 0 {
			y = dj.Y[i]
		}
		d.Examples[i] = dataset.Example{X: append([]float64(nil), row...), Y: y}
	}
	return d, nil
}

// FitRequest asks for one private fit on the tenant's learner.
type FitRequest struct {
	Tenant string `json:"tenant"`
	// Seed drives the release's randomness; the same (tenant state,
	// seed, data) reproduces the same draw.
	Seed int64 `json:"seed"`
	// Degrade optionally overrides the tenant's default policy for this
	// request: "refuse", "fallback", or "widen".
	Degrade string   `json:"degrade,omitempty"`
	Data    DataJSON `json:"data"`
}

// CertificateJSON is the wire form of a core.Certificate. Epsilon,
// Delta, Lambda and Confidence depend on the learner's configuration,
// the tenant's budget and the sample size, not on the data's values.
// RiskBound, ExpEmpRisk and KL are
// exact, noise-free functions of the posted data that neither fit nor
// certify charges ε for: they are owner-only diagnostics for the tenant
// who posted the data, not private outputs to publish (DESIGN §10).
type CertificateJSON struct {
	Epsilon    float64 `json:"epsilon"`
	Delta      float64 `json:"delta,omitempty"`
	Lambda     float64 `json:"lambda"`
	RiskBound  float64 `json:"risk_bound"`
	Confidence float64 `json:"confidence_delta"`
	ExpEmpRisk float64 `json:"exp_emp_risk"`
	KL         float64 `json:"kl_nats"`
}

func certificateJSON(c core.Certificate) CertificateJSON {
	return CertificateJSON{
		Epsilon:    c.Privacy.Epsilon,
		Delta:      c.Privacy.Delta,
		Lambda:     c.Lambda,
		RiskBound:  c.RiskBound,
		Confidence: c.Delta,
		ExpEmpRisk: c.ExpEmpRisk,
		KL:         c.KL,
	}
}

// FitResponse returns the privately selected predictor with its
// certificates.
type FitResponse struct {
	Theta       []float64       `json:"theta"`
	Index       int             `json:"index"`
	Degraded    bool            `json:"degraded"`
	Policy      string          `json:"policy"`
	Certificate CertificateJSON `json:"certificate"`
}

// CertifyRequest evaluates the certificates of a fit without drawing θ;
// it charges no ε (see CertificateJSON for who may read the result).
type CertifyRequest struct {
	Tenant string   `json:"tenant"`
	Data   DataJSON `json:"data"`
}

// CertifyResponse carries the certificate of a hypothetical fit.
type CertifyResponse struct {
	Certificate CertificateJSON `json:"certificate"`
}

// CandidateJSON is one predictor competing in private selection.
type CandidateJSON struct {
	Name  string    `json:"name"`
	Theta []float64 `json:"theta"`
}

// SelectRequest picks one candidate by the exponential mechanism scored
// on the validation data, spending Epsilon from the tenant's budget.
type SelectRequest struct {
	Tenant     string          `json:"tenant"`
	Seed       int64           `json:"seed"`
	Epsilon    float64         `json:"epsilon"`
	Candidates []CandidateJSON `json:"candidates"`
	Data       DataJSON        `json:"data"`
}

// SelectResponse names the selected candidate.
type SelectResponse struct {
	Name    string    `json:"name"`
	Theta   []float64 `json:"theta"`
	Epsilon float64   `json:"epsilon"`
}

// DensityRequest releases a private histogram density of one feature.
type DensityRequest struct {
	Tenant  string  `json:"tenant"`
	Seed    int64   `json:"seed"`
	Feature int     `json:"feature"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Epsilon float64 `json:"epsilon"`
	// Kind selects the mechanism: "laplace" (default; noised histogram
	// with Bins bins) or "gibbs" (exponential-mechanism selection over
	// BinChoices candidate resolutions, clipped at Clip).
	Kind       string   `json:"kind,omitempty"`
	Bins       int      `json:"bins,omitempty"`
	BinChoices []int    `json:"bin_choices,omitempty"`
	Clip       float64  `json:"clip,omitempty"`
	Data       DataJSON `json:"data"`
}

// DensityResponse is the released piecewise-constant density.
type DensityResponse struct {
	Lo      float64   `json:"lo"`
	Hi      float64   `json:"hi"`
	Bins    int       `json:"bins"`
	Density []float64 `json:"density"`
	Epsilon float64   `json:"epsilon"`
}

// SummaryRequest releases the ε-DP summary of one feature (noisy count,
// clamped mean, quantiles, histogram; Epsilon split across the parts).
type SummaryRequest struct {
	Tenant    string    `json:"tenant"`
	Seed      int64     `json:"seed"`
	Feature   int       `json:"feature"`
	Lo        float64   `json:"lo"`
	Hi        float64   `json:"hi"`
	Bins      int       `json:"bins,omitempty"`
	Quantiles []float64 `json:"quantiles,omitempty"`
	Epsilon   float64   `json:"epsilon"`
	Data      DataJSON  `json:"data"`
}

// QuantilePoint is one released quantile (sorted by P on the wire; a
// JSON map keyed by float would rot into strings).
type QuantilePoint struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

// SummaryResponse is the released summary.
type SummaryResponse struct {
	Count     float64         `json:"count"`
	Mean      float64         `json:"mean"`
	Quantiles []QuantilePoint `json:"quantiles"`
	Histogram []float64       `json:"histogram"`
	Lo        float64         `json:"lo"`
	Hi        float64         `json:"hi"`
	Epsilon   float64         `json:"epsilon"`
}

func summaryResponse(sum *core.PrivateSummary, charged float64) *SummaryResponse {
	qs := make([]QuantilePoint, 0, len(sum.Quantiles))
	for p, v := range sum.Quantiles {
		qs = append(qs, QuantilePoint{P: p, Value: v})
	}
	// Sorting makes the response independent of map iteration order.
	sort.Slice(qs, func(i, j int) bool { return qs[i].P < qs[j].P })
	return &SummaryResponse{
		Count:     sum.Count,
		Mean:      sum.Mean,
		Quantiles: qs,
		Histogram: sum.Histogram,
		Lo:        sum.Lo,
		Hi:        sum.Hi,
		Epsilon:   charged,
	}
}

// BudgetStatus reports one tenant's books: configured budget, canonical
// composed spend, clamped headroom, and bookkeeping counts. It is pure
// post-processing of accounted metadata — no record data flows out.
type BudgetStatus struct {
	Tenant           string  `json:"tenant"`
	BudgetEpsilon    float64 `json:"budget_epsilon"`
	BudgetDelta      float64 `json:"budget_delta,omitempty"`
	SpentEpsilon     float64 `json:"spent_epsilon"`
	SpentDelta       float64 `json:"spent_delta,omitempty"`
	RemainingEpsilon float64 `json:"remaining_epsilon"`
	RemainingDelta   float64 `json:"remaining_delta,omitempty"`
	Releases         int     `json:"releases"`
	Reserved         int     `json:"reserved"`
	Degrade          string  `json:"degrade"`
}

func budgetStatus(t *Tenant) BudgetStatus {
	spent := t.Acct.BasicComposition()
	rem, _ := t.Acct.Remaining()
	budget := t.Budget()
	return BudgetStatus{
		Tenant:           t.ID,
		BudgetEpsilon:    budget.Epsilon,
		BudgetDelta:      budget.Delta,
		SpentEpsilon:     spent.Epsilon,
		SpentDelta:       spent.Delta,
		RemainingEpsilon: rem.Epsilon,
		RemainingDelta:   rem.Delta,
		Releases:         t.Acct.Count(),
		Reserved:         t.Acct.Reserved(),
		Degrade:          t.Degrade.String(),
	}
}

// ErrorResponse is the uniform error payload. Code is
// "budget_exhausted" on a final 429: the tenant's committed spends
// alone refuse the request, so no retry can succeed.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// validEpsilon rejects non-finite or non-positive request budgets
// before anything touches a mechanism constructor.
func validEpsilon(eps float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps <= 0 {
		return fmt.Errorf("%w: epsilon must be finite and positive, got %v", errBadRequest, eps)
	}
	return nil
}

// data converts a posted dataset for the learner's predictor space (fit,
// certify): it must carry exactly the spec's feature dimension.
func (sp LearnerSpec) data(dj *DataJSON) (*dataset.Dataset, error) {
	d, err := dj.dataset()
	if err != nil {
		return nil, err
	}
	if d.Dim() != sp.Dim {
		return nil, fmt.Errorf("%w: data has %d features, the predictor space has %d",
			errBadRequest, d.Dim(), sp.Dim)
	}
	return d, nil
}

// featureData validates a quoted release over one feature (density,
// summary): the ε first, then the dataset, then the feature index.
func featureData(eps float64, dj *DataJSON, feature int) (*dataset.Dataset, error) {
	if err := validEpsilon(eps); err != nil {
		return nil, err
	}
	d, err := dj.dataset()
	if err != nil {
		return nil, err
	}
	if feature < 0 || feature >= d.Dim() {
		return nil, fmt.Errorf("%w: feature %d outside [0, %d)", errBadRequest, feature, d.Dim())
	}
	return d, nil
}

// candidates converts and validates the wire candidates against the
// validation data's dimension (a short theta would index out of range
// deep in the quality function).
func candidates(cands []CandidateJSON, dim int) ([]learn.Candidate, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: select needs candidates", errBadRequest)
	}
	out := make([]learn.Candidate, len(cands))
	for i, c := range cands {
		if len(c.Theta) != dim {
			return nil, fmt.Errorf("%w: candidate %d has %d coefficients, data has %d features",
				errBadRequest, i, len(c.Theta), dim)
		}
		out[i] = learn.Candidate{Name: c.Name, Theta: append([]float64(nil), c.Theta...)}
	}
	return out, nil
}

// quotedGuarantee is the service's price tag for a request that quotes
// its own ε: the serve layer reserves and commits exactly this quoted
// guarantee, so the tenant's books are a pure function of the admitted
// request history (the underlying mechanisms' recomputed guarantees can
// differ in the last float bits after calibration round-trips).
func quotedGuarantee(eps float64) mechanism.Guarantee {
	return mechanism.Guarantee{Epsilon: eps}
}
