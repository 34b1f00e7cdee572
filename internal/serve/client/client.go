// Package client is the retry-aware HTTP client for the dplearn release
// service: per-request deadlines, jittered exponential backoff that
// honors Retry-After, idempotency-keyed retries that are safe by
// construction, and a consecutive-5xx circuit breaker.
//
// The retry policy encodes the serve layer's charging semantics:
//
//   - A 429 without Retry-After is final: the tenant's committed spends
//     alone refuse the request, spends never fall, so the client stops
//     (its body carries the code "budget_exhausted").
//   - A 429 with Retry-After (an outstanding hold may yet free the
//     budget) and a 503 (draining/overload) are retried — a refused
//     request charged nothing, so a retry risks nothing. The hint is
//     honored, capped at MaxRetryAfter.
//   - Other 5xx and transport errors are retried ONLY when the request
//     carries an idempotency key. A 500 can hide a post-commit crash —
//     the charge is durable even though the response was lost — and a
//     keyless retry would buy the same release twice. With a key the
//     server replays the original outcome without a second charge, so
//     the retry is free by protocol, not by hope.
//   - A run of consecutive 5xx responses opens the breaker: requests
//     fail fast with ErrCircuitOpen until the cooldown elapses, so a
//     crashed or crash-looping server is not hammered by every worker.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/rng"
)

// ErrCircuitOpen reports a request refused locally because the breaker
// is open (too many consecutive 5xx responses; retry after cooldown).
var ErrCircuitOpen = errors.New("client: circuit open")

// Config shapes a Client. Zero values take the documented defaults.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport client (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per request, first included (default 3).
	MaxAttempts int
	// Deadline bounds one logical request including all retries and
	// backoff sleeps (default 30s; ≤0 keeps the default).
	Deadline time.Duration
	// BaseBackoff seeds the exponential backoff: attempt n sleeps
	// BaseBackoff·2ⁿ, full-jittered (default 25ms).
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff sleep (default 1s).
	MaxBackoff time.Duration
	// MaxRetryAfter caps how long a server Retry-After hint is honored
	// (default 500ms).
	MaxRetryAfter time.Duration
	// BreakerThreshold is the consecutive-5xx count that opens the
	// circuit (default 5; <0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open (default 1s).
	BreakerCooldown time.Duration
	// Seed drives the jitter stream (deterministic per seed; the sleep
	// durations are wall-clock, but WHICH durations are drawn replays).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 500 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// Result is one settled logical request.
type Result struct {
	// Status is the final HTTP status code.
	Status int
	// Body is the final response body.
	Body []byte
	// Attempts is how many HTTP requests were sent (≥1).
	Attempts int
	// Replayed reports that the response came from the server's durable
	// idempotency store (the Idempotency-Replayed header) rather than a
	// fresh release.
	Replayed bool
}

// Client is a retrying dplearn-serve client. Safe for concurrent use;
// the breaker and jitter stream are shared across goroutines.
type Client struct {
	cfg Config

	mu       sync.Mutex
	g        *rng.RNG
	failures int       // consecutive 5xx/transport failures
	openedAt time.Time // breaker open timestamp (zero = closed)
}

// New builds a client.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, g: rng.New(cfg.Seed)}
}

// PostRaw sends one logical request with a pre-marshaled JSON body to
// path (e.g. "/v1/fit"), retrying per the policy above, with optional
// extra headers (e.g. a traceparent) set on every attempt. idemKey, when
// non-empty, is sent as the Idempotency-Key header and unlocks retries
// of 5xx and transport failures. The returned Result holds the final
// status and body; err is non-nil only when no response settled
// (deadline, breaker, attempts exhausted on transport errors). Load
// generators pass pre-generated bodies, so their request streams stay
// byte-identical across runs.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte, idemKey string, header http.Header) (*Result, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Deadline)
	defer cancel()
	res := &Result{}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if wait, open := c.breakerOpen(); open {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (cooling %s after: %v)", ErrCircuitOpen, wait.Round(time.Millisecond), lastErr)
			}
			return nil, fmt.Errorf("%w (cooling %s)", ErrCircuitOpen, wait.Round(time.Millisecond))
		}
		status, respBody, hdr, err := c.once(ctx, path, body, idemKey, header)
		res.Attempts = attempt + 1
		if err != nil {
			lastErr = err
			c.recordFailure()
			if ctx.Err() != nil {
				return nil, fmt.Errorf("client: %s: %w", path, ctx.Err())
			}
			if idemKey == "" {
				// A transport error after the server committed would make a
				// blind retry a double release; without a key, surface it.
				return nil, fmt.Errorf("client: %s: %w", path, err)
			}
			if serr := c.sleep(ctx, c.backoff(attempt)); serr != nil {
				return nil, fmt.Errorf("client: %s: %w", path, serr)
			}
			continue
		}
		res.Status = status
		res.Body = respBody
		res.Replayed = res.Replayed || hdr.Get("Idempotency-Replayed") == "true"
		retryAfter, hinted := RetryAfterSeconds(hdr.Get("Retry-After"))
		switch {
		case status >= 500 && status != http.StatusServiceUnavailable:
			c.recordFailure()
			if idemKey == "" {
				return res, nil // the 5xx is the answer; retrying could double-spend
			}
		case status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests && hinted:
			c.recordSuccess() // the server is alive and answering; only real failures trip the breaker
		default:
			// A 2xx, another 4xx, or a final 429 — one without Retry-After,
			// which the spent budget answers to every retry — settles.
			c.recordSuccess()
			return res, nil
		}
		if attempt == c.cfg.MaxAttempts-1 {
			return res, nil
		}
		// Honor the server's Retry-After wish, capped at MaxRetryAfter,
		// with the jittered exponential backoff as the floor.
		d := c.backoff(attempt)
		if retryAfter > c.cfg.MaxRetryAfter {
			retryAfter = c.cfg.MaxRetryAfter
		}
		if retryAfter > d {
			d = retryAfter
		}
		if serr := c.sleep(ctx, d); serr != nil {
			return res, nil // deadline hit mid-backoff; the last response stands
		}
	}
	return res, nil
}

// once sends a single HTTP attempt and returns its status, body and
// response header.
func (c *Client) once(ctx context.Context, path string, body []byte, idemKey string, header http.Header) (status int, respBody []byte, hdr http.Header, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close() //dplint:ignore errdrop read-only response body
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, b, resp.Header, nil
}

// backoff draws the full-jittered exponential backoff for attempt n:
// uniform in (0, min(MaxBackoff, BaseBackoff·2ⁿ)].
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	f := c.g.Float64()
	c.mu.Unlock()
	return time.Duration(f * float64(d))
}

// sleep waits d or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// breakerOpen reports whether the circuit is open and, if so, the
// remaining cooldown.
func (c *Client) breakerOpen() (time.Duration, bool) {
	if c.cfg.BreakerThreshold < 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openedAt.IsZero() {
		return 0, false
	}
	left := c.cfg.BreakerCooldown - time.Since(c.openedAt)
	if left > 0 {
		return left, true
	}
	// Cooldown elapsed: half-open — let the next attempt probe.
	c.openedAt = time.Time{}
	c.failures = 0
	return 0, false
}

// recordFailure counts a consecutive failure and opens the breaker at
// the threshold.
func (c *Client) recordFailure() {
	if c.cfg.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if c.failures >= c.cfg.BreakerThreshold && c.openedAt.IsZero() {
		c.openedAt = time.Now()
	}
}

// recordSuccess resets the consecutive-failure count.
func (c *Client) recordSuccess() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = 0
}

// RetryAfterSeconds parses a Retry-After header value in seconds form
// (the only form dplearn-serve emits), for callers that hold the raw
// response.
func RetryAfterSeconds(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false
	}
	return time.Duration(n) * time.Second, true
}
