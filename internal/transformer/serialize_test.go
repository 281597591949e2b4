package transformer

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// paramShapes is the decoder's picture of Params(): the same names and
// shapes in the same order, for every architecture of the family.
func TestParamShapesMatchParams(t *testing.T) {
	for name, cfg := range Family() {
		ps := NewWithInit(cfg, 0, Init{}).Params()
		shapes := paramShapes(cfg)
		if len(shapes) != len(ps) {
			t.Fatalf("%s: %d shapes, %d params", name, len(shapes), len(ps))
		}
		for i, p := range ps {
			s := shapes[i]
			if s.name != p.Name || s.rows != p.Value.Rows || s.cols != p.Value.Cols {
				t.Fatalf("%s: shape %d is %s %d×%d, param is %s %d×%d",
					name, i, s.name, s.rows, s.cols, p.Name, p.Value.Rows, p.Value.Cols)
			}
		}
	}
}

// objectSeeds are real objects of the tiny, mini and small architectures,
// one with a pruned head.
func objectSeeds() [][]byte {
	var out [][]byte
	for i, arch := range []string{"tiny", "mini", "small"} {
		m := New(Family()[arch], uint64(i+1))
		if arch == "mini" {
			m.PruneHeads(1, 1)
		}
		out = append(out, m.EncodeObject())
	}
	return out
}

// withHeader re-frames obj's tensor data under a header edited by edit.
func withHeader(t testing.TB, obj []byte, edit func(h *objectHeader)) []byte {
	hdr, body, err := decodeHeader(obj)
	if err != nil {
		t.Fatal(err)
	}
	edit(hdr)
	js, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), obj[:len(objectMagic)+4]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(js)))
	return append(append(out, js...), body...)
}

// oversizedObject is a tiny object whose header claims Hidden = Vocab =
// 2^31: the size check must refuse it before allocating anything.
func oversizedObject(t testing.TB) []byte {
	return withHeader(t, objectSeeds()[0], func(h *objectHeader) {
		h.Config.Hidden, h.Config.Vocab = 1<<31, 1<<31
	})
}

func TestDecodeObjectRefusesMalformed(t *testing.T) {
	good := objectSeeds()[0]
	version := append([]byte(nil), good...)
	version[len(objectMagic)]++
	for _, c := range []struct {
		what string
		data []byte
		want string
	}{
		{"no bytes", nil, "not a model object"},
		{"another magic", append([]byte("GZIP"), good[4:]...), "not a model object"},
		{"another version", version, "object version"},
		{"a header past the end", good[:objectPrefix+10], "overruns"},
		{"an invalid config", withHeader(t, good, func(h *objectHeader) { h.Config.Heads = 3 }), "multiple of Heads"},
		{"a missing mask", withHeader(t, good, func(h *objectHeader) { h.Pruned = h.Pruned[1:] }), "pruning masks"},
		{"a renamed tensor", withHeader(t, good, func(h *objectHeader) { h.Tensors[3].Name = "block0.wz" }), "want \"block0.bq\""},
		{"a tensor listed twice", withHeader(t, good, func(h *objectHeader) { h.Tensors[3] = h.Tensors[2] }), "want \"block0.bq\""},
		{"a wrong listed length", withHeader(t, good, func(h *objectHeader) { h.Tensors[0].Len-- }), "listed"},
		{"an oversized config", oversizedObject(t), "left in the object"},
		{"a truncated body", good[:len(good)-4], "left in the object"},
		{"trailing bytes", append(append([]byte(nil), good...), 0, 0, 0, 0), "tensor data"},
		{"a torn float", append(append([]byte(nil), good...), 0), "tensor data"},
	} {
		m, err := DecodeObject(c.data)
		if err == nil || m != nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: DecodeObject = %v, %v; want an error containing %q", c.what, m, err, c.want)
		}
	}
}

// FuzzDecodeObject: a store object is durable state read back from disk,
// so arbitrary bytes give an error or a model whose own encoding decodes
// to the same configuration, masks and tensor bits — never a panic or an
// allocation sized by a lying header.
func FuzzDecodeObject(f *testing.F) {
	for _, seed := range objectSeeds() {
		f.Add(seed)
	}
	f.Add(oversizedObject(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeObject(data)
		if err != nil {
			if m != nil {
				t.Fatal("a refused object returned a model")
			}
			return
		}
		again, err := DecodeObject(m.EncodeObject())
		if err != nil {
			t.Fatalf("re-encoded object refused: %v", err)
		}
		if again.Config != m.Config {
			t.Fatalf("config %+v round-tripped to %+v", m.Config, again.Config)
		}
		for l, b := range m.Blocks {
			if !reflect.DeepEqual(b.HeadPruned, again.Blocks[l].HeadPruned) {
				t.Fatalf("block %d mask %v round-tripped to %v", l, b.HeadPruned, again.Blocks[l].HeadPruned)
			}
		}
		pa, pb := m.Params(), again.Params()
		for i := range pa {
			for j, v := range pa[i].Value.Data {
				if math.Float32bits(v) != math.Float32bits(pb[i].Value.Data[j]) {
					t.Fatalf("tensor %s value %d round-tripped from %08x to %08x", pa[i].Name, j,
						math.Float32bits(v), math.Float32bits(pb[i].Value.Data[j]))
				}
			}
		}
	})
}
