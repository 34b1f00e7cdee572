package mechanism

import (
	"context"
	"testing"
)

// TestChargeScopeCollectsCommits pins the one-record contract: both
// commit paths (SpendDetail and Reservation.Commit) append to the scope
// stamped on their SpendMeta, in commit order, while the observer sees
// the record without the scope — so a request's scope is never pinned
// past the request.
func TestChargeScopeCollectsCommits(t *testing.T) {
	var a Accountant
	var observed []SpendRecord
	a.SetObserver(func(r SpendRecord) { observed = append(observed, r) })
	scope := &ChargeScope{}
	ctx := WithChargeScope(context.Background(), scope)
	if ChargeScopeFrom(ctx) != scope {
		t.Fatal("context lost the scope")
	}

	a.SpendDetail(Guarantee{Epsilon: 0.25}, SpendMeta{Mechanism: "laplace", Charge: ChargeScopeFrom(ctx)})
	a.Spend(Guarantee{Epsilon: 9}) // outside any request: not the scope's
	res, err := a.Reserve(Guarantee{Epsilon: 0.5, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	res.Commit(SpendMeta{Mechanism: "gibbs", Charge: scope})

	recs := scope.Records()
	if len(recs) != 2 {
		t.Fatalf("scope holds %d record(s), want 2", len(recs))
	}
	if recs[0].Meta.Mechanism != "laplace" || recs[0].Seq != 0 || recs[1].Meta.Mechanism != "gibbs" || recs[1].Seq != 2 {
		t.Errorf("scope records out of commit order: %+v", recs)
	}
	if recs[1].Guarantee != (Guarantee{Epsilon: 0.5, Delta: 1e-6}) {
		t.Errorf("scope holds %+v, want the committed guarantee", recs[1].Guarantee)
	}
	for _, r := range observed {
		if r.Meta.Charge != nil {
			t.Errorf("seq %d keeps its request's scope", r.Seq)
		}
	}
	if len(observed) != 3 {
		t.Errorf("observer saw %d record(s), want 3", len(observed))
	}

	var none *ChargeScope
	none.add(SpendRecord{})
	if none.Records() != nil || ChargeScopeFrom(context.Background()) != nil {
		t.Error("a missing scope must collect nothing")
	}
}
