package mathx

import (
	"math"
	"math/big"
)

// exactUnitExp is the binary exponent of one ExactSum unit: every finite
// float64 is an integer multiple of 2^-1074, the smallest subnormal.
const exactUnitExp = -1074

// ExactSum accumulates float64 values without rounding. The finite
// terms are kept as one integer count of 2^-1074 units, so Add and Sub
// are exact, Sub undoes a finite Add bit for bit, and Float64 rounds the
// true sum once, to nearest-even (subnormals included). The result is
// therefore a pure function of the multiset of terms, whatever order
// they arrive in. Non-finite terms follow IEEE-754: any NaN, or both
// infinities, make the sum NaN; otherwise an infinity makes it ±Inf.
//
// Add and Sub reuse a scratch operand, so once the accumulator has held
// a value of the largest magnitude it will see they allocate nothing.
// The zero value is an empty sum ready to use. An ExactSum is not safe
// for concurrent use, and Float64 writes the scratch operand too.
type ExactSum struct {
	units   big.Int // Σ of the finite terms, in units of 2^-1074
	scratch big.Int
	nan     bool
	posInf  bool
	negInf  bool
}

// Add accumulates x exactly.
func (s *ExactSum) Add(x float64) { s.add(x, false) }

// Sub accumulates −x exactly: after Add(x), Sub(x) restores the prior
// sum bit for bit when x is finite.
func (s *ExactSum) Sub(x float64) { s.add(x, true) }

func (s *ExactSum) add(x float64, negate bool) {
	b := math.Float64bits(x)
	neg := (b>>63 == 1) != negate
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	switch {
	case exp == 0x7ff && mant != 0:
		s.nan = true
		return
	case exp == 0x7ff:
		s.posInf = s.posInf || !neg
		s.negInf = s.negInf || neg
		return
	case exp == 0: // zero or subnormal: mant units exactly
		if mant == 0 {
			return
		}
	default: // normal: (2^52 + mant)·2^(exp−1075) = (2^52 + mant)·2^(exp−1) units
		mant |= 1 << 52
		exp--
	}
	s.scratch.SetUint64(mant)
	s.scratch.Lsh(&s.scratch, uint(exp))
	if neg {
		s.units.Sub(&s.units, &s.scratch)
	} else {
		s.units.Add(&s.units, &s.scratch)
	}
}

// SetSum sets s to the exact sum of the terms of x and y, which are left
// unchanged.
func (s *ExactSum) SetSum(x, y *ExactSum) {
	s.units.Add(&x.units, &y.units)
	s.nan = x.nan || y.nan
	s.posInf = x.posInf || y.posInf
	s.negInf = x.negInf || y.negInf
}

// SetDiff sets s to the exact difference of the terms of x and y — the
// terms of x and those of y negated, as Sub would take them — which are
// left unchanged. Rounding s then rounds the true difference once.
func (s *ExactSum) SetDiff(x, y *ExactSum) {
	s.units.Sub(&x.units, &y.units)
	s.nan = x.nan || y.nan
	s.posInf = x.posInf || y.negInf
	s.negInf = x.negInf || y.posInf
}

// Reset empties the sum, keeping its storage.
func (s *ExactSum) Reset() {
	s.units.SetInt64(0)
	s.nan, s.posInf, s.negInf = false, false, false
}

// Float64 returns the sum rounded once to the nearest float64, ties to
// even. An exact zero is +0, and a finite sum beyond the float64 range
// rounds to ±Inf.
func (s *ExactSum) Float64() float64 {
	switch {
	case s.nan || s.posInf && s.negInf:
		return math.NaN()
	case s.posInf:
		return math.Inf(1)
	case s.negInf:
		return math.Inf(-1)
	}
	mag := s.scratch.Abs(&s.units)
	// Keep the top 53 bits; round on the first dropped bit (half) and
	// whether any bit below it is set (sticky).
	drop := mag.BitLen() - 53
	if drop < 0 {
		drop = 0
	}
	half := drop > 0 && mag.Bit(drop-1) == 1
	sticky := drop > 1 && mag.TrailingZeroBits() < uint(drop-1)
	m := mag.Rsh(mag, uint(drop)).Uint64()
	if half && (sticky || m&1 == 1) {
		m++
	}
	f := math.Ldexp(float64(m), drop+exactUnitExp)
	if s.units.Sign() < 0 {
		f = -f
	}
	return f
}
