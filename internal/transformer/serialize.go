package transformer

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// The object layout is a model's one serialized form (the zoo store's
// objects):
//
//	magic "\x89DTM" | u32 version | u32 header length | header | tensor data
//
// The header is JSON: the configuration, the head-pruning masks, and each
// tensor's name and length in Params() order. The data is every tensor's
// float32 bits, little-endian, in the same order. Integers are
// little-endian. Gradients are not serialized. The bytes are a pure
// function of the model, so the same weights always encode identically.
const (
	objectMagic   = "\x89DTM"
	objectVersion = 1
	objectPrefix  = len(objectMagic) + 8 // magic, version, header length
)

type objectHeader struct {
	Config  Config
	Pruned  [][]bool
	Tensors []objectTensor
}

type objectTensor struct {
	Name string
	Len  int
}

// EncodeObject returns the model's object bytes.
func (m *Model) EncodeObject() []byte {
	hdr := objectHeader{Config: m.Config, Pruned: make([][]bool, len(m.Blocks))}
	for l, b := range m.Blocks {
		hdr.Pruned[l] = b.HeadPruned
	}
	params := m.Params()
	floats := 0
	for _, p := range params {
		hdr.Tensors = append(hdr.Tensors, objectTensor{Name: p.Name, Len: len(p.Value.Data)})
		floats += len(p.Value.Data)
	}
	js, err := json.Marshal(&hdr)
	if err != nil {
		panic(fmt.Sprintf("transformer: encode object header: %v", err)) // plain data: unreachable
	}
	out := make([]byte, 0, objectPrefix+len(js)+4*floats)
	out = append(out, objectMagic...)
	out = binary.LittleEndian.AppendUint32(out, objectVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(js)))
	out = append(out, js...)
	for _, p := range params {
		for _, v := range p.Value.Data {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
	}
	return out
}

// DecodeObject rebuilds a model from EncodeObject's bytes. Everything is
// checked before the model is allocated: the magic and version, that the
// header fits, Config.Validate, the masks' shape, that the tensors are
// exactly the configuration's Params() names and sizes in order, and that
// the data holds exactly their float32s — sizes counted against the bytes
// present, so a header claiming a huge model fails instead of allocating
// it.
func DecodeObject(data []byte) (*Model, error) {
	hdr, body, err := decodeHeader(data)
	if err != nil {
		return nil, fmt.Errorf("transformer: decode object: %w", err)
	}
	m := NewWithInit(hdr.Config, 0, Init{})
	for l, mask := range hdr.Pruned {
		copy(m.Blocks[l].HeadPruned, mask)
	}
	for _, p := range m.Params() {
		dst := p.Value.Data
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
		body = body[4*len(dst):]
	}
	return m, nil
}

// decodeHeader validates an object's framing and header against the
// bytes that follow it, returning the header and the tensor data.
func decodeHeader(data []byte) (*objectHeader, []byte, error) {
	if len(data) < objectPrefix || string(data[:len(objectMagic)]) != objectMagic {
		return nil, nil, errors.New("not a model object")
	}
	if v := binary.LittleEndian.Uint32(data[len(objectMagic):]); v != objectVersion {
		return nil, nil, fmt.Errorf("object version %d, want %d", v, objectVersion)
	}
	hlen := uint64(binary.LittleEndian.Uint32(data[len(objectMagic)+4:]))
	if hlen > uint64(len(data)-objectPrefix) {
		return nil, nil, fmt.Errorf("header of %d bytes overruns the object", hlen)
	}
	var hdr objectHeader
	if err := json.Unmarshal(data[objectPrefix:objectPrefix+int(hlen)], &hdr); err != nil {
		return nil, nil, fmt.Errorf("header: %w", err)
	}
	cfg := hdr.Config
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(hdr.Pruned) != cfg.Layers {
		return nil, nil, fmt.Errorf("pruning masks for %d blocks, want %d", len(hdr.Pruned), cfg.Layers)
	}
	for l, mask := range hdr.Pruned {
		if len(mask) != cfg.Heads {
			return nil, nil, fmt.Errorf("block %d mask has %d heads, want %d", l, len(mask), cfg.Heads)
		}
	}
	shapes := paramShapes(cfg)
	if len(hdr.Tensors) != len(shapes) {
		return nil, nil, fmt.Errorf("%d tensors, want %d", len(hdr.Tensors), len(shapes))
	}
	body := data[objectPrefix+int(hlen):]
	left := int64(len(body) / 4) // float32s present and not yet claimed
	for i, s := range shapes {
		t := hdr.Tensors[i]
		if t.Name != s.name {
			return nil, nil, fmt.Errorf("tensor %d is %q, want %q", i, t.Name, s.name)
		}
		// rows·cols ≤ left, tested without forming a product that
		// could overflow.
		if int64(s.rows) > left/int64(s.cols) || int64(s.rows*s.cols) != int64(t.Len) {
			return nil, nil, fmt.Errorf("tensor %q: %d×%d values claimed, %d listed, %d left in the object",
				s.name, s.rows, s.cols, t.Len, left)
		}
		left -= int64(t.Len)
	}
	if left != 0 || len(body)%4 != 0 {
		return nil, nil, fmt.Errorf("%d bytes of tensor data, the listed tensors take %d",
			len(body), 4*(int64(len(body)/4)-left))
	}
	return &hdr, body, nil
}
