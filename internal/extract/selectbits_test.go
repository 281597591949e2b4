package extract

import (
	"math"
	"reflect"
	"testing"

	"decepticon/internal/ieee754"
)

// refSelectBits is Algorithm 1's bit selection as the place-value loop it
// was first written as: up to MaxBitsPerWeight fraction bits, most
// significant first, whose place value is at most the gap. selectBits must
// agree with it on every input.
func refSelectBits(c Config, base float32) (sel uint32, gap float64) {
	if !isFinite(base) {
		return 0, 0
	}
	absBase := base
	if absBase < 0 {
		absBase = -absBase
	}
	if float64(absBase) < c.SkipThreshold {
		return 0, 0
	}
	gap = c.gap(base)
	n := 0
	for k := 1; k <= ieee754.FractionBits && n < c.MaxBitsPerWeight; k++ {
		if ieee754.FractionBitValue(absBase, k) > gap {
			continue
		}
		sel |= 1 << k
		n++
	}
	return sel, gap
}

// refExtractWeightFormat is ExtractWeightFormat with the same loop over
// the format's own place values.
func refExtractWeightFormat(c Config, base float32, fm ieee754.Format, read func(bit int) int) (float32, []int) {
	pattern := fm.Quantize(base)
	if !isFinite(base) {
		return fm.Value(pattern), nil
	}
	absBase := base
	if absBase < 0 {
		absBase = -absBase
	}
	if float64(absBase) < c.SkipThreshold {
		return fm.Value(pattern), nil
	}
	dist := c.gap(base)
	clone := pattern
	var checked []int
	for k := 1; k <= fm.FracBits && len(checked) < c.MaxBitsPerWeight; k++ {
		if fm.FractionBitValue(pattern, k) > dist {
			continue
		}
		bit := read(fm.FracBits - k)
		clone = fm.SetFractionBit(clone, k, bit)
		checked = append(checked, k)
	}
	return fm.Value(clone), checked
}

// checkSelectBits compares both selectors with their loops for one weight
// under one configuration.
func checkSelectBits(t *testing.T, c Config, base float32) {
	t.Helper()
	sel, gap := c.selectBits(base)
	wantSel, wantGap := refSelectBits(c, base)
	if sel != wantSel || math.Float64bits(gap) != math.Float64bits(wantGap) {
		t.Fatalf("selectBits(%v) under %+v = %#x (gap %v), the loop gives %#x (gap %v)",
			base, c, sel, gap, wantSel, wantGap)
	}
	// The victim pattern is the weight's own with every other bit flipped,
	// so a misplaced read changes the clone.
	for _, fm := range []ieee754.Format{ieee754.Binary32, ieee754.Binary16, ieee754.BFloat16} {
		victim := fm.Quantize(base) ^ 0x5555_5555_5555_5555
		read := func(bit int) int { return fm.Bit(victim, bit) }
		clone, checked := c.ExtractWeightFormat(base, fm, read)
		wantClone, wantChecked := refExtractWeightFormat(c, base, fm, read)
		if math.Float32bits(clone) != math.Float32bits(wantClone) || !reflect.DeepEqual(checked, wantChecked) {
			t.Fatalf("%s ExtractWeightFormat(%v) under %+v = %v checking %v, the loop gives %v checking %v",
				fm.Name, base, c, clone, checked, wantClone, wantChecked)
		}
	}
}

// TestSelectBitsMatchesLoop pins the closed-form selectors to the loop on
// the edges of both the weight and the gap: signed zeros, subnormals, the
// largest finite value and non-finite weights; zero, negative, subnormal,
// huge, infinite and NaN gaps; skip thresholds that let zero through; and
// bit budgets from none to more than the fraction holds.
func TestSelectBitsMatchesLoop(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	weights := []float32{
		0, math.Float32frombits(1 << 31), // ±0
		math.Float32frombits(1), math.Float32frombits(0x007f_ffff), // smallest and largest subnormal
		math.Float32frombits(0x0080_0000), -math.Float32frombits(0x0080_0000), // smallest normal
		0.0004, 0.001, 0.018, -0.25, 0.5, 1, 7.5, -3e20, math.MaxFloat32,
		float32(nan), float32(inf), float32(-inf),
	}
	gaps := [][2]float64{ // GapBase, GapSlope
		{0.003, 0.05}, {0, 0}, {-1, 0}, {-0.003, 0.05}, {5e-324, 0}, {1e-45, 0},
		{0.5, 0}, {1, 0}, {2, 0}, {0.75, 0}, {1e300, 0}, {inf, 0}, {-inf, 0}, {nan, 0}, {0, inf},
	}
	for _, skip := range []float64{0.001, 0, -1} {
		for _, g := range gaps {
			for _, limit := range []int{-1, 0, 1, 2, 3, 7, 22, 23, 24, 100} {
				c := Config{SkipThreshold: skip, MaxBitsPerWeight: limit, GapBase: g[0], GapSlope: g[1]}
				for _, w := range weights {
					checkSelectBits(t, c, w)
				}
			}
		}
	}
}

// FuzzSelectBits: the closed-form selectors agree with the loop on any
// weight, gap model, skip threshold and bit budget.
func FuzzSelectBits(f *testing.F) {
	f.Add(math.Float32bits(0.018), 0.003, 0.05, 0.001, 2)
	f.Add(uint32(1), 5e-324, 0.0, 0.0, 23)
	f.Add(uint32(1<<31), math.NaN(), 0.0, -1.0, 3)
	f.Add(math.Float32bits(float32(math.Inf(1))), math.Inf(1), 0.0, 0.0, 2)
	f.Add(math.Float32bits(-0.25), -0.003, 0.05, 0.001, -1)
	f.Add(math.Float32bits(7.5), 0.75, 0.0, 0.001, 24)
	f.Fuzz(func(t *testing.T, w uint32, gapBase, gapSlope, skip float64, limit int) {
		c := Config{SkipThreshold: skip, MaxBitsPerWeight: limit, GapBase: gapBase, GapSlope: gapSlope}
		checkSelectBits(t, c, math.Float32frombits(w))
	})
}
