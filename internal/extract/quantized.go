package extract

import (
	"math"

	"decepticon/internal/ieee754"
)

// ExtractWeightFormat runs Algorithm 1 against a victim whose weights are
// stored in the given floating-point format (§8 "Supporting Quantization
// and Pruning"): the attacker quantizes her pre-trained baseline to the
// victim's format, skips near-zero weights, and reads only the fraction
// bits whose place value covers the expected fine-tuning gap — "with
// slight bit adjustment", exactly as the paper says. read returns raw bit
// i (0 = LSB) of the victim's stored pattern. It returns the clone value
// decoded back to float32 and the checked fraction-bit indices
// (MSB-first), which for bfloat16 are the same indices as for float32
// because the two formats share an exponent layout.
func (c Config) ExtractWeightFormat(base float32, fm ieee754.Format, read func(bit int) int) (float32, []int) {
	pattern := fm.Quantize(base)
	// Same guard as selectBits: a non-finite baseline defeats the
	// place-value bracket (every comparison against a NaN/Inf gap is
	// false) and would read garbage bits at hammer cost.
	if !isFinite(base) {
		return fm.Value(pattern), nil
	}
	if math.Abs(float64(base)) < c.SkipThreshold {
		return fm.Value(pattern), nil
	}
	first, n := gapBits(fm.UnbiasedExponent(pattern), fm.FracBits, c.gap(base), c.MaxBitsPerWeight)
	clone := pattern
	var checked []int
	for k := first; k < first+n; k++ {
		clone = fm.SetFractionBit(clone, k, read(fm.FracBits-k))
		checked = append(checked, k)
	}
	return fm.Value(clone), checked
}

// QuantizedTensorStats extracts a whole quantized tensor and reports the
// outcome: victim holds the fine-tuned weights (quantized on read), base
// the pre-trained float32 weights.
type QuantizedTensorStats struct {
	Format        string
	Weights       int
	BitsRead      int
	WithinGap     int // |clone - victim| within the expected gap
	MeanAbsErr    float64
	FullBitsTotal int // cost of DeepSteal-style full readout in this format
}

// ExtractQuantizedTensor runs the format-aware extraction over aligned
// base/victim weight slices.
func (c Config) ExtractQuantizedTensor(fm ieee754.Format, base, victim []float32) QuantizedTensorStats {
	st := QuantizedTensorStats{Format: fm.Name, Weights: len(base), FullBitsTotal: len(base) * fm.Bits()}
	var errSum float64
	for i := range base {
		vPattern := fm.Quantize(victim[i])
		clone, checked := c.ExtractWeightFormat(base[i], fm, func(bit int) int {
			return fm.Bit(vPattern, bit)
		})
		st.BitsRead += len(checked)
		vq := fm.Value(vPattern)
		err := float64(clone - vq)
		if err < 0 {
			err = -err
		}
		errSum += err
		if err <= c.gap(base[i]) {
			st.WithinGap++
		}
	}
	if len(base) > 0 {
		st.MeanAbsErr = errSum / float64(len(base))
	}
	return st
}
