package obs

import (
	"encoding/hex"
	"fmt"
)

// TraceContext is a W3C Trace Context (traceparent) carrier: a 128-bit
// trace id, the 64-bit id of the caller's span, and the trace flags.
// It is the wire form of request-scoped tracing — clients inject a
// traceparent header, the serve layer adopts it, and every span, ledger
// line, and access-log line the request causes carries TraceHi/TraceLo
// so offline tools can join them back to the request.
//
// The zero TraceContext is "no context" (Valid returns false): an
// all-zero trace id is invalid per the W3C spec, which conveniently
// makes the zero value the natural "untraced" sentinel.
type TraceContext struct {
	// TraceHi and TraceLo are the high and low 8 bytes of the 128-bit
	// trace id.
	TraceHi, TraceLo uint64
	// Parent is the caller's span id (the parent-id field). Zero is
	// invalid on the wire but tolerated in memory for locally-minted
	// contexts that have not yet passed through a span.
	Parent uint64
	// Flags is the trace-flags byte, carried through unchanged: bit 0
	// is "sampled", and later Trace Context levels define more bits
	// (Level 2: 0x02, "random"), so a conforming client's header
	// re-renders byte for byte.
	Flags byte
}

// Valid reports whether the context carries a usable (non-zero) trace id.
func (tc TraceContext) Valid() bool {
	return tc.TraceHi != 0 || tc.TraceLo != 0
}

// TraceID returns the 32-hex-digit trace id ("" for an invalid context).
func (tc TraceContext) TraceID() string {
	if !tc.Valid() {
		return ""
	}
	var b [16]byte
	putUint64(b[0:8], tc.TraceHi)
	putUint64(b[8:16], tc.TraceLo)
	return hex.EncodeToString(b[:])
}

// Traceparent renders the context in W3C traceparent form:
// "00-<32 hex trace id>-<16 hex parent id>-<2 hex flags>".
// An invalid context renders as "" so callers can gate header injection
// on the returned string alone.
func (tc TraceContext) Traceparent() string {
	if !tc.Valid() {
		return ""
	}
	var b [8]byte
	putUint64(b[:], tc.Parent)
	return "00-" + tc.TraceID() + "-" + hex.EncodeToString(b[:]) + "-" + hex.EncodeToString([]byte{tc.Flags})
}

// ParseTraceparent parses a W3C traceparent header. It accepts exactly
// the version-00 fixed layout: 55 bytes, lowercase hex, dash-separated,
// with a non-zero trace id and a non-zero parent id. Anything else is an
// error — a malformed header must not silently start a new trace under a
// half-parsed id. Every flags byte is accepted and kept whole.
func ParseTraceparent(s string) (TraceContext, error) {
	if len(s) != 55 {
		return TraceContext{}, fmt.Errorf("obs: traceparent: length %d, want 55", len(s))
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, fmt.Errorf("obs: traceparent: bad separators in %q", s)
	}
	if s[0:2] != "00" {
		return TraceContext{}, fmt.Errorf("obs: traceparent: unsupported version %q", s[0:2])
	}
	hi, err := parseHex64(s[3:19])
	if err != nil {
		return TraceContext{}, fmt.Errorf("obs: traceparent: trace id: %w", err)
	}
	lo, err := parseHex64(s[19:35])
	if err != nil {
		return TraceContext{}, fmt.Errorf("obs: traceparent: trace id: %w", err)
	}
	if hi == 0 && lo == 0 {
		return TraceContext{}, fmt.Errorf("obs: traceparent: all-zero trace id")
	}
	parent, err := parseHex64(s[36:52])
	if err != nil {
		return TraceContext{}, fmt.Errorf("obs: traceparent: parent id: %w", err)
	}
	if parent == 0 {
		return TraceContext{}, fmt.Errorf("obs: traceparent: all-zero parent id")
	}
	flags, err := parseHexByte(s[53:55])
	if err != nil {
		return TraceContext{}, fmt.Errorf("obs: traceparent: flags: %w", err)
	}
	return TraceContext{TraceHi: hi, TraceLo: lo, Parent: parent, Flags: flags}, nil
}

// DeriveTraceContext deterministically mints a TraceContext from a
// request seed. Trace ids must be a pure function of the request stream
// — never of the wall clock or a global RNG — so goldens and replayed
// load stay bit-identical. The derivation is two rounds of the
// splitmix64 finalizer over the seed (one per trace-id half) and a third
// for the parent span id; splitmix64 is a bijection on uint64, so
// distinct seeds give distinct ids, and the all-zero id can only arise
// from the two seeds mapping to zero halves, which are remapped.
func DeriveTraceContext(seed int64) TraceContext {
	const golden = 0x9e3779b97f4a7c15 // splitmix64 increment; multiples wrap mod 2^64
	hi := mix64(uint64(seed) + golden)
	lo := mix64(uint64(seed) + golden + golden)
	parent := mix64(uint64(seed) + golden + golden + golden)
	if hi == 0 && lo == 0 {
		lo = 1
	}
	if parent == 0 {
		parent = 1
	}
	return TraceContext{TraceHi: hi, TraceLo: lo, Parent: parent, Flags: 1}
}

// mix64 is the splitmix64 output finalizer (Vigna): a fast, invertible
// avalanche over uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// putUint64 writes v big-endian into b[0:8] (hand-rolled to keep the
// import set minimal).
func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// parseHex64 parses exactly 16 lowercase hex digits. Uppercase is
// rejected: the W3C spec mandates lowercase on the wire, and strictness
// here keeps the round-trip property exact (parse∘format = identity).
func parseHex64(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("field length %d, want 16", len(s))
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d, ok := hexVal(s[i])
		if !ok {
			return 0, fmt.Errorf("non-hex byte %q", s[i])
		}
		v = v<<4 | uint64(d)
	}
	return v, nil
}

// parseHexByte parses exactly 2 lowercase hex digits.
func parseHexByte(s string) (byte, error) {
	if len(s) != 2 {
		return 0, fmt.Errorf("field length %d, want 2", len(s))
	}
	hiD, ok1 := hexVal(s[0])
	loD, ok2 := hexVal(s[1])
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("non-hex byte in %q", s)
	}
	return hiD<<4 | loD, nil
}

// hexVal decodes one lowercase hex digit.
func hexVal(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}
