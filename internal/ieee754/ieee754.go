// Package ieee754 provides bit-level access to IEEE 754 binary32
// (float32) values. Decepticon's selective weight extraction (paper §6.1.1,
// Algorithm 1) reasons about which individual fraction bits of a weight can
// account for the fine-tuning weight-value gap; this package supplies the
// field extraction, per-bit value weights, and bit surgery it needs.
//
// Bit layout used throughout (binary32):
//
//	bit 31        : sign
//	bits 30..23   : biased exponent (bias 127)
//	bits 22..0    : fraction; "fraction bit k" below means the k-th most
//	                significant fraction bit, k in [1, 23], i.e. raw bit 23-k.
package ieee754

import "math"

// FractionBits is the number of fraction (mantissa) bits in binary32.
const FractionBits = 23

// ExponentBias is the binary32 exponent bias.
const ExponentBias = 127

// Sign returns 0 for non-negative f (including +0) and 1 for negative f.
func Sign(f float32) int {
	return int(math.Float32bits(f) >> 31)
}

// Exponent returns the raw biased exponent field (0..255).
func Exponent(f float32) int {
	return int(math.Float32bits(f) >> FractionBits & 0xff)
}

// UnbiasedExponent returns Exponent(f) - 127. For subnormals (raw exponent
// 0) it returns -126, the effective exponent of the subnormal range.
func UnbiasedExponent(f float32) int {
	e := Exponent(f)
	if e == 0 {
		return 1 - ExponentBias
	}
	return e - ExponentBias
}

// Fraction returns the 23-bit fraction field.
func Fraction(f float32) uint32 {
	return math.Float32bits(f) & ((1 << FractionBits) - 1)
}

// FractionBit returns fraction bit k (k in [1, FractionBits], MSB-first) of
// f as 0 or 1. It panics on an out-of-range k.
func FractionBit(f float32, k int) int {
	checkK(k)
	return int(Fraction(f) >> (FractionBits - k) & 1)
}

// SetFractionBit returns f with fraction bit k (MSB-first) set to bit
// (0 or 1), leaving sign and exponent untouched.
func SetFractionBit(f float32, k, bit int) float32 {
	checkK(k)
	if bit != 0 && bit != 1 {
		panic("ieee754: bit must be 0 or 1")
	}
	u := math.Float32bits(f)
	mask := uint32(1) << (FractionBits - k)
	u &^= mask
	if bit == 1 {
		u |= mask
	}
	return math.Float32frombits(u)
}

// Bit returns raw bit i (0 = LSB of fraction, 31 = sign) of f.
func Bit(f float32, i int) int {
	if i < 0 || i > 31 {
		panic("ieee754: raw bit index out of range")
	}
	return int(math.Float32bits(f) >> uint(i) & 1)
}

// SetBit returns f with raw bit i set to bit.
func SetBit(f float32, i, bit int) float32 {
	if i < 0 || i > 31 {
		panic("ieee754: raw bit index out of range")
	}
	if bit != 0 && bit != 1 {
		panic("ieee754: bit must be 0 or 1")
	}
	u := math.Float32bits(f)
	mask := uint32(1) << uint(i)
	u &^= mask
	if bit == 1 {
		u |= mask
	}
	return math.Float32frombits(u)
}

// FractionBitValue returns the magnitude contributed by fraction bit k of a
// value with f's exponent: 2^(e-k) where e is the unbiased exponent. This
// is the paper's "the first bit value of the fraction field is 2^(exp-127-1)"
// rule used to decide which bits can cover the expected weight gap.
func FractionBitValue(f float32, k int) float64 {
	checkK(k)
	return math.Ldexp(1, UnbiasedExponent(f)-k)
}

// IntegerPartValue returns 2^e for f's unbiased exponent e — the value of
// the implicit leading 1 bit (Algorithm 1's int_base). For a zero value it
// returns 0.
func IntegerPartValue(f float32) float64 {
	if f == 0 {
		return 0
	}
	return math.Pow(2, float64(UnbiasedExponent(f)))
}

func checkK(k int) {
	if k < 1 || k > FractionBits {
		panic("ieee754: fraction bit index out of range [1,23]")
	}
}
