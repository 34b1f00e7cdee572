package obs

import (
	"strings"
	"testing"
)

// TestDeriveTraceContextRoundTrip is the round-trip property: for many
// seeds, Derive → Traceparent → Parse is the identity, the context is
// valid, and the header has the exact W3C 00-version shape.
func TestDeriveTraceContextRoundTrip(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 42, 1 << 20, -(1 << 40), 1<<63 - 1, -1 << 63}
	for s := int64(3); s < 5000; s += 97 {
		seeds = append(seeds, s, -s)
	}
	seen := make(map[string]int64, len(seeds))
	for _, seed := range seeds {
		tc := DeriveTraceContext(seed)
		if !tc.Valid() {
			t.Fatalf("DeriveTraceContext(%d) is invalid: %+v", seed, tc)
		}
		if tc.Flags != 1 {
			t.Fatalf("DeriveTraceContext(%d) flags = %#x, want sampled (0x01)", seed, tc.Flags)
		}
		h := tc.Traceparent()
		if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
			t.Fatalf("DeriveTraceContext(%d).Traceparent() = %q, want 00-<32hex>-<16hex>-01", seed, h)
		}
		got, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", h, err)
		}
		if got != tc {
			t.Fatalf("round trip lost data: %+v -> %q -> %+v", tc, h, got)
		}
		if prev, dup := seen[tc.TraceID()]; dup {
			t.Fatalf("seeds %d and %d derive the same trace id %s", prev, seed, tc.TraceID())
		}
		seen[tc.TraceID()] = seed
	}
}

// TestDeriveTraceContextDeterministic pins the derivation: the ids are a
// pure function of the seed, so a loadgen configuration alone reproduces
// every trace id a traced run emitted.
func TestDeriveTraceContextDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 7, -12345} {
		a, b := DeriveTraceContext(seed), DeriveTraceContext(seed)
		if a != b {
			t.Fatalf("DeriveTraceContext(%d) not deterministic: %+v vs %+v", seed, a, b)
		}
	}
	if DeriveTraceContext(1) == DeriveTraceContext(2) {
		t.Fatal("distinct seeds derived identical contexts")
	}
}

// TestParseTraceparentMalformed is the malformed-header table: every
// entry must be rejected, and rejection must yield a zero (invalid)
// context so callers can branch on Valid() alone.
func TestParseTraceparentMalformed(t *testing.T) {
	valid := DeriveTraceContext(99).Traceparent()
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", "00-abc"},
		{"long", valid + "0"},
		{"missing dashes", strings.ReplaceAll(valid, "-", "_")},
		{"version 01", "01" + valid[2:]},
		{"version ff", "ff" + valid[2:]},
		{"uppercase hex", strings.ToUpper(valid)},
		{"non-hex trace id", valid[:3] + strings.Repeat("g", 32) + valid[35:]},
		{"non-hex parent id", valid[:36] + strings.Repeat("z", 16) + valid[52:]},
		{"zero trace id", valid[:3] + strings.Repeat("0", 32) + valid[35:]},
		{"zero parent id", valid[:36] + strings.Repeat("0", 16) + valid[52:]},
		{"bad flags", valid[:53] + "xy"},
		{"dash positions shifted", "00" + valid[2:34] + "--" + valid[36:]},
		{"embedded space", valid[:10] + " " + valid[11:]},
		{"embedded newline", valid[:10] + "\n" + valid[11:]},
	}
	for _, tc := range cases {
		got, err := ParseTraceparent(tc.in)
		if err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted a malformed header: %+v", tc.name, tc.in, got)
		}
		if got.Valid() {
			t.Errorf("%s: rejected header still yielded a valid context: %+v", tc.name, got)
		}
	}
}

// TestParseTraceparentFlags is the flags round-trip table: every flags
// byte parses into Flags unchanged (bit 0 is "sampled") and re-renders
// byte for byte, including bits this package gives no meaning to.
func TestParseTraceparentFlags(t *testing.T) {
	cases := []struct {
		in    string
		flags byte
	}{
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", 0x00},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", 0x01},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03", 0x03},
		{"00-00000000000000010000000000000000-0000001000000000-10", 0x10},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff", 0xff},
	}
	for _, c := range cases {
		got, err := ParseTraceparent(c.in)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", c.in, err)
		}
		if got.Flags != c.flags {
			t.Errorf("ParseTraceparent(%q).Flags = %#x, want %#x", c.in, got.Flags, c.flags)
		}
		if h := got.Traceparent(); h != c.in {
			t.Errorf("%q re-rendered as %q", c.in, h)
		}
	}
}

// TestTraceparentInvalidContext pins the zero-value behavior: an invalid
// context renders no header and no trace id.
func TestTraceparentInvalidContext(t *testing.T) {
	var tc TraceContext
	if tc.Valid() {
		t.Fatal("zero TraceContext is valid")
	}
	if h := tc.Traceparent(); h != "" {
		t.Fatalf("invalid context rendered header %q", h)
	}
	if id := tc.TraceID(); id != "" {
		t.Fatalf("invalid context rendered trace id %q", id)
	}
}

// FuzzTraceparent fuzzes the strict parser: it must never panic, and
// every header it accepts must re-render byte-identically (parse/format
// round trip on the accepting side).
func FuzzTraceparent(f *testing.F) {
	f.Add(DeriveTraceContext(1).Traceparent())
	f.Add(DeriveTraceContext(-99).Traceparent())
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add(strings.Repeat("0", 55))
	f.Add("00-00000000000000010000000000000000-0000001000000000-10")
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			if tc.Valid() {
				t.Fatalf("error path returned a valid context for %q", s)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q but context is invalid", s)
		}
		if got := tc.Traceparent(); got != s {
			t.Fatalf("accepted %q but re-rendered as %q", s, got)
		}
	})
}
