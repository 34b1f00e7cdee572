package serve

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/mechanism"
)

// TestChaosNeverHalfSpends drives a mixed request stream through a
// server whose fault schedule panics workers and fails checkpoint
// writes inside in-flight requests. For select and summary the faults
// fire while spendQuoted holds the reservation; for fit and density
// they fire before the facade takes its own Reserve, so nothing is held
// yet. The contract under fire: every 5xx released (never committed)
// whatever it held, so afterwards the accountant holds exactly one
// record per 2xx spending response, zero reservations, and the ledger
// audits bit-for-bit.
func TestChaosNeverHalfSpends(t *testing.T) {
	const requests = 160
	sched := faults.NewSchedule(99, map[faults.Class]float64{
		faults.WorkerPanic:     0.12,
		faults.CheckpointWrite: 0.12,
	})
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "chaos", Budget: mechanism.Guarantee{Epsilon: 1000}}},
		Learner: LearnerSpec{Epsilon: 0.2},
		Faults:  sched,
	})
	data := testData(31, 16, 2)
	endpoints := []string{"fit", "summary", "select", "density"}
	var ok, injected int
	for i := 0; i < requests; i++ {
		seed := int64(i + 1) // the fault key: deterministic plan over 1..requests
		var resp *http.Response
		var body []byte
		switch endpoints[i%len(endpoints)] {
		case "fit":
			resp, body = postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "chaos", Seed: seed, Data: data})
		case "summary":
			resp, body = postJSON(t, ts.URL+"/v1/summary", SummaryRequest{
				Tenant: "chaos", Seed: seed, Feature: 0, Lo: -1, Hi: 1,
				Quantiles: []float64{0.5}, Epsilon: 0.01, Data: data,
			})
		case "select":
			resp, body = postJSON(t, ts.URL+"/v1/select", SelectRequest{
				Tenant: "chaos", Seed: seed, Epsilon: 0.01,
				Candidates: []CandidateJSON{
					{Name: "a", Theta: []float64{1, 0}},
					{Name: "b", Theta: []float64{0, 1}},
				},
				Data: data,
			})
		case "density":
			resp, body = postJSON(t, ts.URL+"/v1/density", DensityRequest{
				Tenant: "chaos", Seed: seed, Feature: 0, Lo: -1, Hi: 1,
				Epsilon: 0.01, Bins: 8, Data: data,
			})
		}
		planned := sched.Hit(faults.WorkerPanic, int(seed)) || sched.Hit(faults.CheckpointWrite, int(seed))
		switch resp.StatusCode {
		case http.StatusOK:
			if planned {
				t.Errorf("request %d: plan fired but got 200", i)
			}
			ok++
		case http.StatusInternalServerError:
			if !planned {
				t.Errorf("request %d: unplanned 500: %s", i, body)
			}
			if !strings.Contains(string(body), "injected") {
				t.Errorf("request %d: 500 body does not identify the injected fault: %s", i, body)
			}
			injected++
		default:
			t.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	if injected == 0 {
		t.Fatal("the schedule never fired; the battery tested nothing")
	}
	if ok == 0 {
		t.Fatal("every request faulted; books have nothing to balance")
	}
	t.Logf("chaos: %d ok, %d injected faults", ok, injected)

	tn, _ := s.Tenants().Get("chaos")
	if got := tn.Acct.Count(); got != ok {
		t.Errorf("accountant has %d record(s), want %d (one per 2xx; a 5xx must release, not commit)", got, ok)
	}
	if r := tn.Acct.Reserved(); r != 0 {
		t.Errorf("%d reservation(s) leaked through the fault paths", r)
	}
	checkBooks(t, tn)
}

// TestChaosPanicReleasesReservation pins the single-request panic
// story: a schedule that always panics turns the request into a 500
// whose reservation is back in the budget — provably, because a
// fault-free retry of the full budget then succeeds.
func TestChaosPanicReleasesReservation(t *testing.T) {
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 0.5}}},
		Faults:  faults.NewSchedule(1, map[faults.Class]float64{faults.WorkerPanic: 1}),
	})
	data := testData(32, 16, 2)
	// The quote equals the whole budget: if the panic path leaked its
	// reservation, no later request could ever be admitted.
	req := SummaryRequest{Tenant: "solo", Seed: 7, Feature: 0, Lo: -1, Hi: 1,
		Quantiles: []float64{0.5}, Epsilon: 0.5, Data: data}
	resp, body := postJSON(t, ts.URL+"/v1/summary", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: HTTP %d: %s", resp.StatusCode, body)
	}
	tn, _ := s.Tenants().Get("solo")
	if tn.Acct.Count() != 0 || tn.Acct.Reserved() != 0 {
		t.Fatalf("after panic: %d record(s), %d reservation(s); want 0, 0",
			tn.Acct.Count(), tn.Acct.Reserved())
	}
	// Disarm the schedule and retry: the full budget must be available.
	s.cfg.Faults = nil
	resp, body = postJSON(t, ts.URL+"/v1/summary", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after released panic: HTTP %d: %s", resp.StatusCode, body)
	}
	if tn.Acct.Count() != 1 {
		t.Errorf("retry committed %d record(s), want 1", tn.Acct.Count())
	}
	checkBooks(t, tn)
}

// TestChaosCheckpointErrorReleases does the same for the error (non
// panic) injection path.
func TestChaosCheckpointErrorReleases(t *testing.T) {
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 0.5}}},
		Faults:  faults.NewSchedule(1, map[faults.Class]float64{faults.CheckpointWrite: 1}),
	})
	data := testData(33, 16, 2)
	req := SelectRequest{Tenant: "solo", Seed: 7, Epsilon: 0.5,
		Candidates: []CandidateJSON{{Name: "a", Theta: []float64{1, 0}}, {Name: "b", Theta: []float64{0, 1}}},
		Data:       data}
	resp, body := postJSON(t, ts.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted select: HTTP %d: %s", resp.StatusCode, body)
	}
	tn, _ := s.Tenants().Get("solo")
	if tn.Acct.Count() != 0 || tn.Acct.Reserved() != 0 {
		t.Fatalf("after injected error: %d record(s), %d reservation(s); want 0, 0",
			tn.Acct.Count(), tn.Acct.Reserved())
	}
	s.cfg.Faults = nil
	resp, body = postJSON(t, ts.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after released error: HTTP %d: %s", resp.StatusCode, body)
	}
	checkBooks(t, tn)
}
