package transformer

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// tensorExport is one named tensor in Params() order-independent form.
type tensorExport struct {
	Name string
	Data []float32
}

// modelExport is the gob wire format of a Model: the configuration, every
// named tensor, and the head-pruning masks. Gradients are not serialized.
//
// Save writes TensorList (sorted by name) so the byte stream is
// deterministic — gob encodes maps in random iteration order, which would
// make every zoo store object hash differently per run. Load still
// accepts the legacy Tensors map, so files written by older binaries keep
// loading: gob fills whichever field the stream carries and leaves the
// other empty.
type modelExport struct {
	Config     Config
	Tensors    map[string][]float32 // legacy streams only
	TensorList []tensorExport
	Pruned     [][]bool
}

// Save writes the model to w in gob format. The output is byte-
// deterministic: the same weights always serialize to the same stream.
func (m *Model) Save(w io.Writer) error {
	exp := modelExport{
		Config: m.Config,
		Pruned: make([][]bool, len(m.Blocks)),
	}
	for _, p := range m.Params() {
		exp.TensorList = append(exp.TensorList, tensorExport{Name: p.Name, Data: p.Value.Data})
	}
	sort.Slice(exp.TensorList, func(i, j int) bool {
		return exp.TensorList[i].Name < exp.TensorList[j].Name
	})
	for l, b := range m.Blocks {
		exp.Pruned[l] = append([]bool(nil), b.HeadPruned...)
	}
	if err := gob.NewEncoder(w).Encode(exp); err != nil {
		return fmt.Errorf("transformer: save: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save (either tensor layout).
func Load(r io.Reader) (*Model, error) {
	var exp modelExport
	if err := gob.NewDecoder(r).Decode(&exp); err != nil {
		return nil, fmt.Errorf("transformer: load: %w", err)
	}
	if err := exp.Config.Validate(); err != nil {
		return nil, fmt.Errorf("transformer: load: %w", err)
	}
	tensors := exp.Tensors
	if len(exp.TensorList) > 0 {
		tensors = make(map[string][]float32, len(exp.TensorList))
		for _, te := range exp.TensorList {
			tensors[te.Name] = te.Data
		}
	}
	m := New(exp.Config, 0)
	for _, p := range m.Params() {
		data, ok := tensors[p.Name]
		if !ok {
			return nil, fmt.Errorf("transformer: load: missing tensor %q", p.Name)
		}
		if len(data) != len(p.Value.Data) {
			return nil, fmt.Errorf("transformer: load: tensor %q has %d values, want %d",
				p.Name, len(data), len(p.Value.Data))
		}
		copy(p.Value.Data, data)
	}
	if len(exp.Pruned) != len(m.Blocks) {
		return nil, fmt.Errorf("transformer: load: pruning masks for %d blocks, want %d",
			len(exp.Pruned), len(m.Blocks))
	}
	for l, mask := range exp.Pruned {
		if len(mask) != m.Heads {
			return nil, fmt.Errorf("transformer: load: block %d mask has %d heads, want %d",
				l, len(mask), m.Heads)
		}
		copy(m.Blocks[l].HeadPruned, mask)
	}
	return m, nil
}
