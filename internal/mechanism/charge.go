package mechanism

import (
	"context"
	"sync"
)

// ChargeScope collects the spends one request commits. The serve layer
// opens one per request and carries it in the request context; facade
// commit sites stamp it on SpendMeta.Charge, and the accountant appends
// every record it commits to the stamped scope. The exact guarantees a
// request paid — which may differ in the low bits from its quoted ε (a
// widened fit charges the remaining headroom, a Gibbs density its
// recalibrated 2·Δq·(ε/2Δq)) — are then one record, read by the request's
// write-ahead commit and its access-log line alike. A nil scope collects
// nothing.
type ChargeScope struct {
	mu   sync.Mutex
	recs []SpendRecord
}

// add appends one committed spend (nil-safe).
func (c *ChargeScope) add(r SpendRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
}

// Records returns a copy of the scope's spends in commit order.
func (c *ChargeScope) Records() []SpendRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpendRecord(nil), c.recs...)
}

// chargeScopeKey carries the request's ChargeScope in a context.
type chargeScopeKey struct{}

// WithChargeScope returns ctx carrying the charge scope.
func WithChargeScope(ctx context.Context, c *ChargeScope) context.Context {
	return context.WithValue(ctx, chargeScopeKey{}, c)
}

// ChargeScopeFrom returns the charge scope carried by ctx (nil outside
// any request).
func ChargeScopeFrom(ctx context.Context) *ChargeScope {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(chargeScopeKey{}).(*ChargeScope)
	return c
}
