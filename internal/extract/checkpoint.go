// Extraction checkpoints. A multi-hour rowhammer campaign that dies at
// 90% must not restart from zero: the checkpoint captures everything a
// resumed run needs to continue as if never interrupted — the tensors
// already extracted, the Stats accounting, and the channel position
// (meters, simulated clock, noise-stream state). Granularity is one
// tensor: Run saves after every completed tensor, so at most one
// tensor's reads are in flight and none are ever re-paid.
//
// The format is gob (the same stdlib-only serialization the zoo store's
// objects use), written atomically: encode to a temp file in the target
// directory, then rename over the destination, so a kill mid-write
// leaves the previous checkpoint intact.
package extract

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"decepticon/internal/fsatomic"
	"decepticon/internal/sidechannel"
)

// checkpointVersion guards the on-disk layout. Version 2 added the
// information-ordered scheduler's estimator state (Sched); version 3 made
// the head the schedule's first entry, counted by LayersDone. An older
// snapshot cannot guarantee a byte-identical resume, so version skew
// fails loudly instead of degrading silently.
const checkpointVersion = 3

// checkpointTensor is one completed tensor's extracted data.
type checkpointTensor struct {
	Name string
	Data []float32
}

// Checkpoint is the serializable state of a partially-run extraction.
type Checkpoint struct {
	Version int
	// Complete marks a finished extraction: resuming one returns the
	// stored result without touching the channel.
	Complete bool
	// LayersDone counts fully processed schedule entries — the head
	// first, then the encoder layers and the embeddings — each including
	// its stop check. Tensors may additionally hold completed tensors of
	// the next, partially-done entry.
	LayersDone int
	Tensors    []checkpointTensor
	Stats      Stats
	Channel    sidechannel.ChannelState
	// Sched is the adaptive-vote estimator position (zero when the
	// scheduler is off). The scheduler's read widths are a pure function
	// of this state, so restoring it keeps a resumed run's oracle access
	// sequence byte-identical to an uninterrupted one.
	Sched SchedulerState
	// Compatibility guards: a resume against a different victim shape or
	// configuration is attacker/operator error and must fail loudly.
	NumLabels   int
	LayersTotal int
}

// writeCheckpoint atomically persists ck at path (fsatomic temp-file +
// rename, the same discipline as the zoo store and the service store).
func writeCheckpoint(path string, ck *Checkpoint) error {
	err := fsatomic.Write(path, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(ck)
	})
	if err != nil {
		return fmt.Errorf("extract: checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint loads a checkpoint from path.
func readCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck := &Checkpoint{}
	if err := gob.NewDecoder(f).Decode(ck); err != nil {
		return nil, fmt.Errorf("extract: checkpoint decode %s: %w", path, err)
	}
	return ck, nil
}

// loadCheckpoint reads the run's checkpoint when Resume is set: nil (no
// error) when resuming is off or no file exists yet, an error when the
// file is unreadable or was written for a different extraction shape.
// Every stored tensor and the schedule position are validated against
// the run's clone and schedule before any of them is applied.
func (r *run) loadCheckpoint() (*Checkpoint, error) {
	if r.CheckpointPath == "" || !r.Resume {
		return nil, nil
	}
	ck, err := readCheckpoint(r.CheckpointPath)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("extract: checkpoint %s: version %d, want %d", r.CheckpointPath, ck.Version, checkpointVersion)
	}
	if ck.NumLabels != r.numLabels || ck.LayersTotal != r.Pre.Layers {
		return nil, fmt.Errorf(
			"extract: checkpoint %s was written for a different victim shape (%d labels / %d layers, want %d / %d)",
			r.CheckpointPath, ck.NumLabels, ck.LayersTotal, r.numLabels, r.Pre.Layers)
	}
	if ck.LayersDone < 0 || ck.LayersDone > len(r.order) {
		return nil, fmt.Errorf("extract: checkpoint %s has %d schedule entries done, the schedule has %d",
			r.CheckpointPath, ck.LayersDone, len(r.order))
	}
	for _, t := range ck.Tensors {
		dst, ok := r.params[t.Name]
		if !ok {
			return nil, fmt.Errorf("extract: checkpoint %s holds unknown tensor %q", r.CheckpointPath, t.Name)
		}
		if len(dst) != len(t.Data) {
			return nil, fmt.Errorf("extract: checkpoint %s tensor %q has %d weights, clone expects %d",
				r.CheckpointPath, t.Name, len(t.Data), len(dst))
		}
	}
	return ck, nil
}
