package extract

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
	"decepticon/internal/transformer"
)

// logOf is ck as a one-record checkpoint log.
func logOf(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	frame, err := encodeRecord(ck)
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(nil), logHeader...), frame...)
}

// writeCheckpoint replaces path with ck as a one-record log.
func writeCheckpoint(t testing.TB, path string, ck *Checkpoint) {
	t.Helper()
	if err := os.WriteFile(path, logOf(t, ck), 0o644); err != nil {
		t.Fatal(err)
	}
}

// v3Checkpoint is the version-3 checkpoint layout: one gob-encoded
// snapshot rewritten whole at every boundary.
type v3Checkpoint struct {
	Version     int
	Complete    bool
	LayersDone  int
	Tensors     []checkpointTensor
	Stats       Stats
	Channel     sidechannel.ChannelState
	Sched       SchedulerState
	NumLabels   int
	LayersTotal int
}

// v3Snapshot is ck in the version-3 layout.
func v3Snapshot(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v3Checkpoint{
		Version: 3, Complete: ck.Complete, LayersDone: ck.LayersDone, Tensors: ck.Tensors,
		Stats: ck.Stats, Channel: ck.Channel, Sched: ck.Sched,
		NumLabels: ck.NumLabels, LayersTotal: ck.LayersTotal,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointLogCrashPoints kills the checkpoint log at every crash
// point of an uninterrupted run — every cut inside the file header, and
// for each record its first byte boundary, one byte into it and its
// middle — by resuming from that prefix. Each resume must reproduce the
// uninterrupted run's clone bits, Stats and registry counters, and leave
// the uninterrupted run's log: whole records only, replaying to the
// complete state.
func TestCheckpointLogCrashPoints(t *testing.T) {
	pre, victim := smallPair()
	dev := make([]transformer.Example, 12)
	for i := range dev {
		tokens := make([]int, 1+i%victim.MaxSeq)
		for j := range tokens {
			tokens[j] = (5*i + 3*j) % victim.Vocab
		}
		dev[i] = transformer.Example{Tokens: tokens, Label: i % victim.Labels}
	}
	cfg := DefaultConfig()
	cfg.StopMatchRate = 1.01 // every entry's stop check runs, none stops
	plan := &sidechannel.FaultPlan{Seed: 4, TransientRate: 0.02, StuckRate: 0.001}
	path := filepath.Join(t.TempDir(), "victim.ckpt")
	run := func(resume bool) (*transformer.Model, *Stats, obs.Snapshot) {
		t.Helper()
		reg := obs.New()
		oracle := sidechannel.NewOracle(victim)
		oracle.SetObs(reg)
		oracle.SetNoise(0.01, 0xbeef)
		oracle.SetFaultPlan(plan)
		ex := &Extractor{Pre: pre, Oracle: oracle, Cfg: cfg, Victim: victim.Predict, Obs: reg,
			CheckpointPath: path, Resume: resume}
		clone, st, err := ex.Run(victim.Labels, dev)
		if err != nil {
			t.Fatal(err)
		}
		return clone, st, reg.Snapshot()
	}

	cloneA, stA, snapA := run(false)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int
	for n := 0; n < len(logHeader); n++ {
		cuts = append(cuts, n)
	}
	off := len(logHeader)
	end, err := scanLog(full, func(payload []byte) error {
		size := 8 + len(payload)
		cuts = append(cuts, off, off+1, off+size/2)
		off += size
		return nil
	})
	if err != nil || end != len(full) {
		t.Fatalf("uninterrupted log: %d of %d bytes whole, err %v", end, len(full), err)
	}
	cuts = append(cuts, len(full))
	if records := (len(cuts) - len(logHeader) - 1) / 3; records < 10 {
		t.Fatalf("uninterrupted log holds %d records, too few to test", records)
	}

	for _, cut := range cuts {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		clone, st, snap := run(true)
		if !reflect.DeepEqual(st, stA) {
			t.Fatalf("cut at %d: stats diverge:\nuninterrupted: %+v\nresumed:       %+v", cut, stA, st)
		}
		pa, pc := cloneA.Params(), clone.Params()
		for i := range pa {
			for j, v := range pa[i].Value.Data {
				if math.Float32bits(v) != math.Float32bits(pc[i].Value.Data[j]) {
					t.Fatalf("cut at %d: clone tensor %s differs at %d", cut, pa[i].Name, j)
				}
			}
		}
		if !reflect.DeepEqual(snap.Counters, snapA.Counters) || !reflect.DeepEqual(snap.Gauges, snapA.Gauges) {
			t.Fatalf("cut at %d: registry diverges:\nuninterrupted: %v %v\nresumed:       %v %v",
				cut, snapA.Counters, snapA.Gauges, snap.Counters, snap.Gauges)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("cut at %d: the resumed log (%d bytes) is not the uninterrupted log (%d bytes)", cut, len(got), len(full))
		}
	}
	ck, err := readCheckpoint(path)
	if err != nil || !ck.Complete {
		t.Fatalf("the log replays to %+v, %v; want a complete checkpoint", ck, err)
	}
}
