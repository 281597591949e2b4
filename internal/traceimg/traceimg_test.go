package traceimg

import (
	"testing"

	"decepticon/internal/gpusim"
	"decepticon/internal/transformer"
)

func trace(name string, prof gpusim.Profile, opt gpusim.Options) *gpusim.Trace {
	cfg := transformer.Family()[name]
	return gpusim.SimulateTransformer(cfg, nil, prof, opt)
}

func TestRenderBasics(t *testing.T) {
	tr := trace("base", gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 1}, gpusim.Options{})
	im := Render(tr, 64)
	if im.Size != 64 || len(im.Pix) != 64*64 {
		t.Fatalf("image shape wrong")
	}
	var max, sum float32
	for _, v := range im.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
		if v > max {
			max = v
		}
		sum += v
	}
	if max != 1 {
		t.Fatalf("image must be normalized to peak 1, got %v", max)
	}
	if sum == 0 {
		t.Fatal("image is empty")
	}
}

func TestRenderEmptyTrace(t *testing.T) {
	im := Render(&gpusim.Trace{}, 16)
	for _, v := range im.Pix {
		if v != 0 {
			t.Fatal("empty trace must render black")
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	tr := trace("base", gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 2}, gpusim.Options{})
	a := Render(tr, 32)
	b := Render(tr, 32)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("render must be deterministic")
		}
	}
}

func TestRenderDistinguishesReleases(t *testing.T) {
	a := Render(trace("base", gpusim.Profile{Source: "a", Framework: gpusim.PyTorch, Seed: 3}, gpusim.Options{}), 32)
	b := Render(trace("base", gpusim.Profile{Source: "b", Framework: gpusim.TensorFlow, Seed: 4}, gpusim.Options{}), 32)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different releases must render differently")
	}
}

func TestDetectLayerCountBaseVsLarge(t *testing.T) {
	for _, tc := range []struct {
		arch string
		want int
	}{
		{"base", transformer.Family()["base"].Layers},
		{"large", transformer.Family()["large"].Layers},
		{"tiny", transformer.Family()["tiny"].Layers},
	} {
		tr := trace(tc.arch, gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 5}, gpusim.Options{})
		got := DetectLayerCount(tr, 32)
		if got != tc.want {
			t.Fatalf("%s: detected %d layers, want %d", tc.arch, got, tc.want)
		}
	}
}

func TestDetectLayerCountSurvivesJitter(t *testing.T) {
	cfg := transformer.Family()["base"]
	tr := gpusim.SimulateTransformer(cfg, nil,
		gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 6},
		gpusim.Options{MeasureSeed: 7, JitterMagnitude: 0.5})
	if got := DetectLayerCount(tr, 32); got != cfg.Layers {
		t.Fatalf("jittered trace: detected %d, want %d", got, cfg.Layers)
	}
}

func TestDetectLayerCountMetaProfile(t *testing.T) {
	// The Meta profile inserts extra short kernels per layer; the
	// repetition count must still equal the layer count.
	cfg := transformer.Family()["medium"]
	tr := gpusim.SimulateTransformer(cfg, nil,
		gpusim.Profile{Source: "meta", Framework: gpusim.PyTorch, Seed: 8, ShortKernels: true},
		gpusim.Options{})
	if got := DetectLayerCount(tr, 32); got != cfg.Layers {
		t.Fatalf("meta profile: detected %d, want %d", got, cfg.Layers)
	}
}

func TestXLARegionDetection(t *testing.T) {
	xla := trace("large", gpusim.Profile{Source: "nvtf", Framework: gpusim.TensorFlow, Seed: 9, XLA: true}, gpusim.Options{})
	start, end, found := XLARegion(xla)
	if !found {
		t.Fatal("XLA region not found in XLA trace")
	}
	if start <= 0 || end >= len(xla.Execs) {
		t.Fatalf("XLA region [%d,%d) not interior to trace of %d", start, end, len(xla.Execs))
	}
	// Detected region must cover the actual autotune kernels.
	for i := start; i < end; i++ {
		name := xla.Execs[i].Name
		if len(name) < 4 || name[:4] != "xla_" {
			t.Fatalf("detected region includes non-XLA kernel %q at %d", name, i)
		}
	}

	regular := trace("base", gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 10}, gpusim.Options{})
	if _, _, found := XLARegion(regular); found {
		t.Fatal("regular trace must not report an XLA region")
	}
}

func TestStripXLARestoresTimeline(t *testing.T) {
	xla := trace("large", gpusim.Profile{Source: "nvtf", Framework: gpusim.TensorFlow, Seed: 11, XLA: true}, gpusim.Options{})
	stripped := StripXLA(xla)
	if len(stripped.Execs) >= len(xla.Execs) {
		t.Fatal("strip must remove kernels")
	}
	prev := 0.0
	for i, e := range stripped.Execs {
		if e.Start < prev-1e-9 || e.End <= e.Start {
			t.Fatalf("stitched timeline broken at %d", i)
		}
		prev = e.End
	}
	for _, e := range stripped.Execs {
		if len(e.Name) >= 4 && e.Name[:4] == "xla_" {
			t.Fatal("strip left XLA kernels behind")
		}
	}
	// Stripping a regular trace is a no-op copy.
	regular := trace("base", gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 12}, gpusim.Options{})
	if got := StripXLA(regular); len(got.Execs) != len(regular.Execs) {
		t.Fatal("regular trace must strip to itself")
	}
}

func TestResample(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	got := resample(xs, 7)
	if len(got) != 7 {
		t.Fatalf("resample length %d", len(got))
	}
	if got[0] != 0 || got[6] != 3 {
		t.Fatalf("resample endpoints %v", got)
	}
	if got[3] != 1.5 {
		t.Fatalf("resample midpoint %v", got[3])
	}
	one := resample([]float64{5}, 3)
	if one[0] != 5 || one[1] != 5 || one[2] != 5 {
		t.Fatalf("constant resample %v", one)
	}
}

// renderReference is the pre-optimization two-pass Render: accumulate,
// then scan the whole image for the max, then normalize. The single-pass
// version must match it bit for bit.
func renderReference(t *gpusim.Trace, size int) *Image {
	im := NewImage(size)
	if len(t.Execs) == 0 {
		return im
	}
	xspan := t.Duration()
	if xspan <= 0 {
		return im
	}
	for _, e := range t.Execs {
		x := int(e.Start / xspan * float64(size))
		if x >= size {
			x = size - 1
		}
		frac := e.Duration() / YSpanUS
		if frac > 1 {
			frac = 1
		}
		y := size - 1 - int(frac*float64(size-1))
		im.Pix[y*size+x] += 1
	}
	var max float32
	for _, v := range im.Pix {
		if v > max {
			max = v
		}
	}
	if max > 0 {
		inv := 1 / max
		for i := range im.Pix {
			im.Pix[i] *= inv
		}
	}
	return im
}

func TestRenderMatchesTwoPassReference(t *testing.T) {
	for _, name := range []string{"base", "large"} {
		for _, size := range []int{16, 64, 333} {
			tr := trace(name, gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 3}, gpusim.Options{})
			got := Render(tr, size)
			want := renderReference(tr, size)
			for i := range want.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("%s size %d: pixel %d = %v, reference %v", name, size, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
	// Sparse trace where every pixel count is 1: exercises the skipped
	// normalization pass (scaling by 1/1 must be a no-op either way).
	sparse := &gpusim.Trace{Execs: []gpusim.Exec{
		{Name: "k0", Start: 0, End: 5},
		{Name: "k1", Start: 100, End: 120},
		{Name: "k2", Start: 300, End: 301},
	}}
	got := Render(sparse, 32)
	want := renderReference(sparse, 32)
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("sparse: pixel %d = %v, reference %v", i, got.Pix[i], want.Pix[i])
		}
	}
}

// StripMemcpy must slide the exec-index section spans left by the number
// of memcpys removed before each boundary, so that each span still names
// the same kernels — and must not alias the input's Sections slice.
func TestStripMemcpyReindexesSections(t *testing.T) {
	tr := trace("base", gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 1}, gpusim.Options{})
	if len(tr.Sections) == 0 {
		t.Fatal("simulated trace carries no sections")
	}
	// Record what each span actually covers before stripping.
	want := make([][]gpusim.Exec, len(tr.Sections))
	for i, s := range tr.Sections {
		want[i] = append([]gpusim.Exec(nil), tr.Execs[s.Start:s.End]...)
	}
	out := StripMemcpy(tr)
	if len(out.Execs) >= len(tr.Execs) {
		t.Fatal("no memcpy events were stripped; test needs them")
	}
	if len(out.Sections) != len(tr.Sections) {
		t.Fatalf("stripped trace has %d sections, want %d", len(out.Sections), len(tr.Sections))
	}
	for i, s := range out.Sections {
		if s.Start < 0 || s.End > len(out.Execs) || s.Start > s.End {
			t.Fatalf("section %d out of range after strip: %+v (execs %d)", i, s, len(out.Execs))
		}
		got := out.Execs[s.Start:s.End]
		if len(got) != len(want[i]) {
			t.Fatalf("section %d covers %d execs after strip, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j].Name != want[i][j].Name {
				t.Fatalf("section %d exec %d is %q after strip, want %q", i, j, got[j].Name, want[i][j].Name)
			}
		}
	}
	// Fresh slice, not an aliased view of the input.
	out.Sections[0].Start = -42
	if tr.Sections[0].Start == -42 {
		t.Fatal("StripMemcpy aliases the input's Sections slice")
	}
}
