package wal

import (
	"encoding/base64"
	"encoding/json"
	"strconv"
)

// decodeRecord decodes one WAL line into r with json.Unmarshal's result.
// A line in the shape Append writes is decoded in one pass by fastRecord;
// any other line — an older format's extra field, an escape, whitespace,
// a torn or corrupt tail — goes to json.Unmarshal itself, so the set of
// lines recovery keeps, and what it reads from them, is encoding/json's.
func decodeRecord(line []byte, r *Record) error {
	*r = Record{}
	if fastRecord(line, r) {
		return nil
	}
	*r = Record{}
	return json.Unmarshal(line, r)
}

// fastRecord decodes line into the zero Record r and reports whether the
// line has the shape Append writes: one object with no whitespace whose
// keys are the exact names of Record's and Charge's fields, each at most
// once, in any order; strings of printable ASCII without escapes, the
// response in standard base64; numbers in the JSON grammar that the
// strconv call encoding/json makes for the field's type accepts. On such
// a line r is what json.Unmarshal decodes. On any other line it reports
// false, leaving r partly written.
func fastRecord(line []byte, r *Record) bool {
	d := lineDecoder{b: line}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "op":
			return seen.first(0) && d.op(&r.Op)
		case "lsn":
			return seen.first(1) && d.uint(&r.LSN)
		case "ref":
			return seen.first(2) && d.uint(&r.Ref)
		case "key":
			return seen.first(3) && d.string(&r.Key)
		case "endpoint":
			return seen.first(4) && d.string(&r.Endpoint)
		case "seed":
			return seen.first(5) && d.int64(&r.Seed)
		case "epsilon":
			return seen.first(6) && d.float(&r.Epsilon)
		case "status":
			return seen.first(7) && d.int(&r.Status)
		case "response":
			return seen.first(8) && d.base64(&r.Response)
		case "charges":
			return seen.first(9) && d.charges(&r.Charges)
		}
		return false
	}) && d.i == len(d.b)
}

// charge decodes one element of a record's charges.
func (d *lineDecoder) charge(c *Charge) bool {
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "mechanism":
			return seen.first(0) && d.string(&c.Mechanism)
		case "sensitivity":
			return seen.first(1) && d.float(&c.Sensitivity)
		case "outcomes":
			return seen.first(2) && d.int(&c.Outcomes)
		case "epsilon":
			return seen.first(3) && d.float(&c.Epsilon)
		case "delta":
			return seen.first(4) && d.float(&c.Delta)
		}
		return false
	})
}

// fieldSet marks the fields an object has named, so a key named twice
// falls back: encoding/json decodes the second value into what the first
// left, so a second charges array keeps the fields its elements omit.
type fieldSet uint16

// first marks field i and reports whether it was unmarked.
func (s *fieldSet) first(i uint) bool {
	bit := fieldSet(1) << i
	if *s&bit != 0 {
		return false
	}
	*s |= bit
	return true
}

// lineDecoder reads one line left to right. Each method reads one token
// or value at i and advances past it, or reports false on anything
// outside the shape fastRecord accepts.
type lineDecoder struct {
	b []byte
	i int
}

// next reads the byte c.
func (d *lineDecoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads an object, handing each key, its colon read, to member,
// which reads the value that follows.
func (d *lineDecoder) object(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.next(':') || !member(key) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// charges reads an array of charges. An empty array is an empty, non-nil
// slice, as encoding/json makes it.
func (d *lineDecoder) charges(dst *[]Charge) bool {
	if !d.next('[') {
		return false
	}
	cs := []Charge{}
	if !d.next(']') {
		for {
			var c Charge
			if !d.charge(&c) {
				return false
			}
			cs = append(cs, c)
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return false
			}
		}
	}
	*dst = cs
	return true
}

// str reads a string of printable ASCII without escapes and returns its
// bytes, which alias the line.
func (d *lineDecoder) str() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *lineDecoder) string(dst *string) bool {
	s, ok := d.str()
	*dst = string(s)
	return ok
}

// op reads a record type, sharing the constants' storage for the two
// the log writes.
func (d *lineDecoder) op(dst *Op) bool {
	s, ok := d.str()
	switch Op(s) {
	case OpCommit:
		*dst = OpCommit
	case OpReserve:
		*dst = OpReserve
	default:
		*dst = Op(s)
	}
	return ok
}

// base64 reads a []byte field: a string decoded by the call encoding/json
// makes, so an empty string is an empty, non-nil slice.
func (d *lineDecoder) base64(dst *[]byte) bool {
	s, ok := d.str()
	if !ok {
		return false
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	*dst = b[:n]
	return err == nil
}

// number reads a number in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (d *lineDecoder) number() ([]byte, bool) {
	start := d.i
	d.next('-')
	if !d.next('0') && d.digits() == 0 {
		return nil, false
	}
	if d.next('.') && d.digits() == 0 {
		return nil, false
	}
	if d.next('e') || d.next('E') {
		_ = d.next('+') || d.next('-')
		if d.digits() == 0 {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

// digits reads a run of decimal digits and returns its length.
func (d *lineDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// The numeric readers parse with the strconv call encoding/json makes for
// the field's type, and refuse what it refuses.

func (d *lineDecoder) float(dst *float64) bool {
	s, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	*dst = f
	return err == nil
}

func (d *lineDecoder) int64(dst *int64) bool {
	s, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	*dst = n
	return err == nil
}

func (d *lineDecoder) int(dst *int) bool {
	s, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (d *lineDecoder) uint(dst *uint64) bool {
	s, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(s), 10, 64)
	*dst = n
	return err == nil
}
