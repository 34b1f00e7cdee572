package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func testCfg(url string) Config {
	return Config{
		BaseURL:       url,
		MaxAttempts:   4,
		Deadline:      5 * time.Second,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		MaxRetryAfter: 5 * time.Millisecond,
		Seed:          1,
	}
}

func TestRetriesRefusalsThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"busy"}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c := New(testCfg(srv.URL))
	res, err := c.PostRaw(context.Background(), "/v1/fit", []byte(`{"tenant":"a"}`), "", nil)
	if err != nil {
		t.Fatalf("PostRaw: %v", err)
	}
	if res.Status != 200 || res.Attempts != 3 {
		t.Fatalf("res=%+v, want 200 after 3 attempts", res)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestFinal429NotRetried pins that a 429 without Retry-After — the
// server's final refusal of a spent budget — settles on its first
// attempt.
func TestFinal429NotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"spent","code":"budget_exhausted"}`))
	}))
	defer srv.Close()
	c := New(testCfg(srv.URL))
	res, err := c.PostRaw(context.Background(), "/v1/fit", nil, "k1", nil)
	if err != nil {
		t.Fatalf("PostRaw: %v", err)
	}
	if res.Status != http.StatusTooManyRequests || res.Attempts != 1 {
		t.Fatalf("res=%+v, want one un-retried 429", res)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

func TestNo5xxRetryWithoutKey(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"boom"}`))
	}))
	defer srv.Close()
	c := New(testCfg(srv.URL))
	res, err := c.PostRaw(context.Background(), "/v1/fit", nil, "", nil)
	if err != nil {
		t.Fatalf("PostRaw: %v", err)
	}
	if res.Status != 500 || res.Attempts != 1 {
		t.Fatalf("res=%+v, want one un-retried 500 (keyless 5xx retry risks a double charge)", res)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

func TestRetries5xxWithKey(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Idempotency-Key") != "k1" {
			t.Errorf("missing idempotency key")
		}
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Idempotency-Replayed", "true")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c := New(testCfg(srv.URL))
	res, err := c.PostRaw(context.Background(), "/v1/fit", nil, "k1", nil)
	if err != nil {
		t.Fatalf("PostRaw: %v", err)
	}
	if res.Status != 200 || res.Attempts != 2 || !res.Replayed {
		t.Fatalf("res=%+v, want a replayed 200 on attempt 2", res)
	}
}

func TestBreakerOpensOnConsecutive5xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	cfg := testCfg(srv.URL)
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = time.Minute
	c := New(cfg)
	// Keyed requests retry 5xx, so one Post burns through the threshold.
	if _, err := c.PostRaw(context.Background(), "/v1/fit", nil, "k", nil); err != nil &&
		!errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("first post: %v", err)
	}
	for i := 0; i < 3; i++ {
		c.PostRaw(context.Background(), "/v1/fit", nil, "k", nil)
	}
	_, err := c.PostRaw(context.Background(), "/v1/fit", nil, "k", nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err=%v, want ErrCircuitOpen", err)
	}
}

func TestBreakerHalfOpensAfterCooldown(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	cfg := testCfg(srv.URL)
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 10 * time.Millisecond
	c := New(cfg)
	c.PostRaw(context.Background(), "/v1/fit", nil, "k", nil) // opens the breaker
	if _, err := c.PostRaw(context.Background(), "/v1/fit", nil, "k", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker did not open: %v", err)
	}
	fail.Store(false)
	time.Sleep(15 * time.Millisecond)
	res, err := c.PostRaw(context.Background(), "/v1/fit", nil, "k", nil)
	if err != nil || res.Status != 200 {
		t.Fatalf("half-open probe failed: res=%+v err=%v", res, err)
	}
}

func TestDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Outlast the client deadline, but return so Close can finish.
		select {
		case <-r.Context().Done():
		case <-time.After(500 * time.Millisecond):
		}
	}))
	defer srv.Close()
	cfg := testCfg(srv.URL)
	cfg.Deadline = 20 * time.Millisecond
	c := New(cfg)
	start := time.Now()
	_, err := c.PostRaw(context.Background(), "/v1/fit", nil, "", nil)
	if err == nil {
		t.Fatal("want deadline error")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline not enforced: took %v", el)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	if d, ok := RetryAfterSeconds("2"); !ok || d != 2*time.Second {
		t.Fatalf("parse 2: %v %v", d, ok)
	}
	if _, ok := RetryAfterSeconds(""); ok {
		t.Fatal("empty must not parse")
	}
	if _, ok := RetryAfterSeconds("soon"); ok {
		t.Fatal("non-numeric must not parse")
	}
}
