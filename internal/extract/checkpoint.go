// Extraction checkpoints. A multi-hour rowhammer campaign that dies at
// 90% must not restart from zero: the checkpoint captures everything a
// resumed run needs to continue as if never interrupted — the tensors
// already extracted, the Stats accounting, and the channel position
// (meters, simulated clock, noise-stream state). Granularity is one
// tensor: Run records after every completed tensor, so at most one
// tensor's reads are in flight and none are ever re-paid.
//
// The checkpoint is an append-only log:
//
//	magic "\x89CKP" | u32 version | record | record | ...
//	record = u32 payload length | u32 CRC-32 (IEEE) of the payload | payload
//
// Integers are little-endian. Each payload is one gob-encoded Checkpoint
// (a fresh encoder per record, so every record decodes alone) whose
// Tensors hold only the tensors finished since the previous record; its
// other fields are the run's state when it was written. Replay folds the
// records in order: tensors accumulate, a tensor recorded twice is
// refused, and every other field takes the last record's value. A record
// costs one write of what changed, where a rewritten snapshot would
// re-encode every finished tensor at every boundary.
//
// A kill mid-append leaves a torn tail: a frame that runs past the end of
// the file, or a file shorter than the header whose bytes are a prefix of
// it. Replay drops a torn tail and the next append truncates it
// (fsatomic.OpenAppend). Anything else that does not parse — a complete
// frame whose CRC fails, another magic or version, a version-3 gob
// snapshot — is refused with an error: read as an empty log, it would
// silently restart a paid-for extraction.
package extract

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"decepticon/internal/fsatomic"
	"decepticon/internal/sidechannel"
)

// checkpointVersion guards the on-disk layout. Version 2 added the
// information-ordered scheduler's estimator state (Sched); version 3 made
// the head the schedule's first entry, counted by LayersDone; version 4
// replaced the rewritten gob snapshot with the append-only log. An older
// checkpoint cannot guarantee a byte-identical resume, so version skew
// fails loudly instead of degrading silently.
const checkpointVersion = 4

const logMagic = "\x89CKP"

// logHeader opens every checkpoint log: the magic, then the version.
var logHeader = binary.LittleEndian.AppendUint32([]byte(logMagic), checkpointVersion)

// checkpointTensor is one completed tensor's extracted data.
type checkpointTensor struct {
	Name string
	Data []float32
}

// Checkpoint is the state of a partially-run extraction: one log record,
// or the fold of a whole log.
type Checkpoint struct {
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

// scanLog walks a checkpoint log's whole records, handing each payload
// to fn (when set), and returns the length of the prefix the header and
// those records occupy; the bytes past it are a torn tail.
func scanLog(data []byte, fn func(payload []byte) error) (int, error) {
	if len(data) < len(logHeader) {
		if !bytes.HasPrefix(logHeader, data) {
			return 0, errors.New("not a checkpoint log")
		}
		return 0, nil // a torn header
	}
	if string(data[:len(logMagic)]) != logMagic {
		return 0, errors.New("not a checkpoint log")
	}
	if v := binary.LittleEndian.Uint32(data[len(logMagic):]); v != checkpointVersion {
		return 0, fmt.Errorf("version %d, want %d", v, checkpointVersion)
	}
	off := len(logHeader)
	for len(data)-off >= 8 {
		n := uint64(binary.LittleEndian.Uint32(data[off:]))
		if n > uint64(len(data)-off-8) {
			break // a torn frame
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			return 0, fmt.Errorf("record at byte %d fails its CRC", off)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return 0, fmt.Errorf("record at byte %d: %w", off, err)
			}
		}
		off += 8 + int(n)
	}
	return off, nil
}

// encodeRecord frames rec as one log record.
func encodeRecord(rec *Checkpoint) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 8, 4096))
	if err := gob.NewEncoder(buf).Encode(rec); err != nil {
		return nil, err
	}
	frame := buf.Bytes()
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-8))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
	return frame, nil
}

// readCheckpoint replays the log at path into one Checkpoint: nil when
// the log holds no whole record.
func readCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck *Checkpoint
	seen := make(map[string]bool)
	_, err = scanLog(data, func(payload []byte) error {
		rec := &Checkpoint{}
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(rec); err != nil {
			return err
		}
		for _, t := range rec.Tensors {
			if seen[t.Name] {
				return fmt.Errorf("tensor %q recorded twice", t.Name)
			}
			seen[t.Name] = true
		}
		if ck != nil {
			rec.Tensors = append(ck.Tensors, rec.Tensors...)
		}
		ck = rec
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("extract: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// appendRecord appends rec to the run's checkpoint log, opening the log
// at the run's first record: a resumed run keeps the whole records its
// replay folded, truncating a torn tail, and any other run starts the
// log afresh.
func (r *run) appendRecord(rec *Checkpoint) error {
	if r.ckpt == nil {
		keep := func([]byte) (int, error) { return 0, nil }
		if r.Resume {
			keep = func(data []byte) (int, error) { return scanLog(data, nil) }
		}
		f, kept, err := fsatomic.OpenAppend(r.CheckpointPath, keep)
		if err != nil {
			return err
		}
		r.ckpt = f
		if len(kept) == 0 {
			if _, err := f.Write(logHeader); err != nil {
				return err
			}
		}
	}
	frame, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	_, err = r.ckpt.Write(frame)
	return err
}

// loadCheckpoint replays the run's checkpoint when Resume is set: nil (no
// error) when resuming is off or the log holds no whole record yet, an
// error when the file is unreadable or was written for a different
// extraction shape. Every stored tensor and the schedule position are
// validated against the run's clone and schedule before any of them is
// applied.
func (r *run) loadCheckpoint() (*Checkpoint, error) {
	if r.CheckpointPath == "" || !r.Resume {
		return nil, nil
	}
	ck, err := readCheckpoint(r.CheckpointPath)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if ck == nil {
		return nil, err
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
