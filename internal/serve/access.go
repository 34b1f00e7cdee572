package serve

import (
	"context"
	"net/http"

	"repro/internal/mathx"
	"repro/internal/mechanism"
)

// accessInfo is the per-request scratchpad behind one access-log line.
// The tracing middleware allocates it, threads it through the request
// context, and handlers fill in what they learn (tenant, quoted ε, a
// replayed or degraded outcome); the middleware renders it into an
// obs.AccessRecord when the response is written. What the request spent
// is not a handler's to say: charges is the request's charge scope,
// filled by the accountant at every commit. All spends of a request
// happen on the request goroutine before the middleware's deferred
// epilogue runs, so plain fields suffice.
type accessInfo struct {
	tenant  string
	quoted  float64
	outcome string
	idemKey string
	charges mechanism.ChargeScope
}

// accessKey is the context key carrying the request's accessInfo.
type accessKey struct{}

// withAccessInfo returns ctx carrying ai and its charge scope.
func withAccessInfo(ctx context.Context, ai *accessInfo) context.Context {
	return mechanism.WithChargeScope(context.WithValue(ctx, accessKey{}, ai), &ai.charges)
}

// accessFrom returns the request's accessInfo, or nil (all setters are
// nil-safe, so handlers never branch).
func accessFrom(ctx context.Context) *accessInfo {
	ai, _ := ctx.Value(accessKey{}).(*accessInfo)
	return ai
}

func (ai *accessInfo) setTenant(id string) {
	if ai != nil {
		ai.tenant = id
	}
}

func (ai *accessInfo) setQuoted(eps float64) {
	if ai != nil {
		ai.quoted = eps
	}
}

func (ai *accessInfo) setOutcome(o string) {
	if ai != nil {
		ai.outcome = o
	}
}

func (ai *accessInfo) setIdemKey(k string) {
	if ai != nil {
		ai.idemKey = k
	}
}

// settle reads the request's charge scope once the response is written:
// spent is the composition of the ε the accountant charged, summed by
// the accumulator the accountant and obs.ComposeBasic use, and the
// outcome is the handler's replayed/degraded if it set one, otherwise
// committed exactly when the scope holds a charge, otherwise refused
// (429/503), free (2xx) or error by status.
func (ai *accessInfo) settle(status int) (spent float64, outcome string) {
	recs := ai.charges.Records()
	var sum mathx.ExactSum
	for _, r := range recs {
		sum.Add(r.Guarantee.Epsilon)
	}
	spent = sum.Float64()
	switch {
	case ai.outcome != "":
		return spent, ai.outcome
	case len(recs) > 0:
		return spent, "committed"
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return spent, "refused"
	case status >= 200 && status < 300:
		return spent, "free"
	default:
		return spent, "error"
	}
}
