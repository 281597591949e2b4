// Package traceimg converts time-series kernel execution traces into the
// 2-D grayscale images the pre-trained model extractor classifies
// (paper §5.4.2), and implements the trace analyses of §5.4.1 and §5.4.3:
// layer-count detection from repeating kernel groups (Fig 10) and
// XLA-region stripping for irregular traces (Fig 12).
package traceimg

import (
	"math"
	"strings"

	"decepticon/internal/gpusim"
	"decepticon/internal/stats"
)

// Image is a square grayscale image with pixel values in [0, 1].
type Image struct {
	Size int
	Pix  []float32 // row-major, Size×Size
}

// NewImage returns a black image.
func NewImage(size int) *Image {
	if size <= 0 {
		panic("traceimg: non-positive image size")
	}
	return &Image{Size: size, Pix: make([]float32, size*size)}
}

// YSpanUS is the fixed duration-axis span in µs; longer kernels clamp to
// the top row. The y scale must be shared across plots (the paper renders
// every trace "with the same x- and y-scales"): normalizing y by the
// per-trace peak would let a single perturbed kernel rescale the whole
// image and destroy the fingerprint. The x axis spans the trace duration —
// a single ±tens-of-µs kernel perturbation moves it only marginally.
const YSpanUS = 40.0

// Render plots a trace as the paper does: x is the kernel invocation time,
// y the kernel duration, axes square, unlabeled, intensity grayscale. The
// image is normalized so its brightest pixel is 1.
func Render(t *gpusim.Trace, size int) *Image {
	im := NewImage(size)
	if len(t.Execs) == 0 {
		return im
	}
	xspan := t.Duration()
	if xspan <= 0 {
		return im
	}
	// Accumulate and track the running maximum in the same pass: counts
	// only grow, so the max of post-increment values is the global max,
	// and the O(size²) scan over mostly-empty pixels disappears.
	pix := im.Pix
	sizeF := float64(size)
	yScale := float64(size - 1)
	var max float32
	for _, e := range t.Execs {
		x := int(e.Start / xspan * sizeF)
		if x >= size {
			x = size - 1
		}
		// y axis: duration, plotted upward (long kernels near the top of
		// the chart => small row index), clamped at the fixed span.
		frac := e.Duration() / YSpanUS
		if frac > 1 {
			frac = 1
		}
		y := size - 1 - int(frac*yScale)
		p := y*size + x
		v := pix[p] + 1
		pix[p] = v
		if v > max {
			max = v
		}
	}
	// max == 1 would scale by exactly 1; skip the pass entirely.
	if max > 1 {
		inv := 1 / max
		for i := range pix {
			pix[i] *= inv
		}
	}
	return im
}

// StripMemcpy returns a copy of the trace without host↔device transfer
// events. Profilers report memcpys as a different event type than kernel
// launches, and the paper's fingerprint (§5.2) is the kernel execution
// timeline — bus transfers are a separate leakage channel (§3).
func StripMemcpy(t *gpusim.Trace) *gpusim.Trace {
	out := &gpusim.Trace{Model: t.Model}
	// Section spans are exec-index ranges, so removing execs invalidates
	// them: each boundary must slide left by the number of memcpys removed
	// before it (the mirror of sim.go, which shifts spans right when a
	// memcpy is inserted). removedBefore[i] counts removed execs in
	// Execs[:i]; it has len+1 entries so End == len(Execs) stays mappable.
	removedBefore := make([]int, len(t.Execs)+1)
	for i, e := range t.Execs {
		removedBefore[i+1] = removedBefore[i]
		if strings.HasPrefix(e.Name, "memcpy_") {
			removedBefore[i+1]++
			continue
		}
		out.Execs = append(out.Execs, e)
	}
	if t.Sections != nil {
		out.Sections = make([]gpusim.SectionSpan, len(t.Sections))
		for i, s := range t.Sections {
			start, end := s.Start, s.End
			if start < 0 {
				start = 0
			}
			if start > len(t.Execs) {
				start = len(t.Execs)
			}
			if end < 0 {
				end = 0
			}
			if end > len(t.Execs) {
				end = len(t.Execs)
			}
			out.Sections[i] = gpusim.SectionSpan{
				Name:  s.Name,
				Start: start - removedBefore[start],
				End:   end - removedBefore[end],
			}
		}
	}
	return out
}

// resample linearly resamples xs to n points.
func resample(xs []float64, n int) []float64 {
	out := make([]float64, n)
	if len(xs) == 0 {
		return out
	}
	if len(xs) == 1 {
		for i := range out {
			out[i] = xs[0]
		}
		return out
	}
	for i := 0; i < n; i++ {
		pos := float64(i) * float64(len(xs)-1) / float64(n-1)
		lo := int(math.Floor(pos))
		hi := lo + 1
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		frac := pos - float64(lo)
		out[i] = xs[lo]*(1-frac) + xs[hi]*frac
	}
	return out
}

// periodScore measures how well the duration sequence splits into count
// equal repeating groups: the mean Pearson correlation between every
// segment's (resampled) duration profile and the first segment's.
func periodScore(durs []float64, count int) float64 {
	if count < 1 || len(durs) < 2*count {
		return -1
	}
	const profile = 24
	segLen := float64(len(durs)) / float64(count)
	ref := resample(durs[:int(segLen)], profile)
	var sum float64
	for s := 1; s < count; s++ {
		a := int(float64(s) * segLen)
		b := int(float64(s+1) * segLen)
		if b > len(durs) {
			b = len(durs)
		}
		if b-a < 2 {
			return -1
		}
		sum += stats.Pearson(ref, resample(durs[a:b], profile))
	}
	return sum / float64(count-1)
}

// DetectLayerCount recovers the number of encoder layers from the
// repetition of kernel groups in the trace (Fig 10). It searches over
// plausible layer counts and small head/tail trims (embedding and
// classifier kernels are not part of the repetition) and returns the
// largest count whose segments correlate almost perfectly; 0 means no
// repetition was found.
func DetectLayerCount(t *gpusim.Trace, maxLayers int) int {
	durs := t.Durations()
	best := 0
	bestScore := 0.0
	trims := []int{0, 1, 2, 3, 4, 6, 8}
	for _, head := range trims {
		for _, tail := range trims {
			if head+tail+4 > len(durs) {
				continue
			}
			body := durs[head : len(durs)-tail]
			for count := 2; count <= maxLayers; count++ {
				score := periodScore(body, count)
				// Prefer the largest count that still correlates near-perfectly:
				// a trace with true period P also correlates when split into
				// P/2 groups, so ties must resolve upward.
				if score > 0.995 && count > best {
					best = count
					bestScore = score
				} else if score > bestScore && best == 0 {
					bestScore = score
				}
			}
		}
	}
	return best
}

// XLARegion locates the mid-trace compilation/autotuning region of an
// XLA-style irregular trace (Fig 12) using only timing (the side channel
// does not expose kernel names). Encoder kernels repeat once per layer, so
// their durations have many near-duplicates across the trace; compilation
// and autotuning kernels have essentially unique durations. The region is
// the longest contiguous run of duration-wise unrepeated kernels. It
// returns half-open exec indices [start, end); found is false for regular
// traces.
func XLARegion(t *gpusim.Trace) (start, end int, found bool) {
	durs := t.Durations()
	if len(durs) < 16 {
		return 0, 0, false
	}
	// irregular[i]: fewer than 3 other kernels share (within 2%) kernel
	// i's duration.
	irregular := make([]bool, len(durs))
	for i, d := range durs {
		matches := 0
		for j, e := range durs {
			if j == i {
				continue
			}
			diff := d - e
			if diff < 0 {
				diff = -diff
			}
			if diff <= 0.02*d+0.05 {
				matches++
				if matches >= 3 {
					break
				}
			}
		}
		irregular[i] = matches < 3
	}
	bestLen, bestStart := 0, 0
	curLen, curStart := 0, 0
	for i, irr := range irregular {
		if irr {
			if curLen == 0 {
				curStart = i
			}
			curLen++
			if curLen > bestLen {
				bestLen, bestStart = curLen, curStart
			}
		} else {
			curLen = 0
		}
	}
	// A genuine compilation region is a sustained run; short irregular
	// stretches (embedding, classifier head) do not count.
	if bestLen < 5 {
		return 0, 0, false
	}
	return bestStart, bestStart + bestLen, true
}

// StripXLA returns a copy of the trace with the detected XLA region
// removed and the timeline stitched back together — the paper's
// pre-processing that recovers the encoder regions before classification.
// Regular traces are returned unchanged (as a copy).
func StripXLA(t *gpusim.Trace) *gpusim.Trace {
	start, end, found := XLARegion(t)
	if !found {
		return t.Clone()
	}
	out := &gpusim.Trace{Model: t.Model}
	gap := 0.0
	if end < len(t.Execs) && start > 0 {
		gap = t.Execs[end].Start - t.Execs[start].Start
	}
	for i, e := range t.Execs {
		if i >= start && i < end {
			continue
		}
		if i >= end {
			e.Start -= gap
			e.End -= gap
		}
		out.Execs = append(out.Execs, e)
	}
	return out
}
