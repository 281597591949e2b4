package extract

import (
	"errors"
	"path/filepath"
	"testing"

	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
)

// TestPlanTensorUnitsMatchesPlan pins planTensorUnits as an exact
// count of planTensor's candidate set — the invariant that makes
// planned progress units equal the bits either extraction path selects.
func TestPlanTensorUnitsMatchesPlan(t *testing.T) {
	cfg := DefaultConfig()
	bases := [][]float32{
		{0.018, -0.25, 0.0004, 7.5, 0, -0.003},
		{0.5, 0.5, 0.5},
		{},
		{float32(0.00001)},
	}
	z := getZoo(t)
	for _, p := range z.FineTuned[0].Pretrained.Model().Params() {
		bases = append(bases, p.Value.Data)
	}
	for i, base := range bases {
		want := int64(len(planTensor(cfg, base, 0, true)))
		if got := planTensorUnits(cfg, base); got != want {
			t.Fatalf("case %d: planTensorUnits = %d, planTensor selects %d bits", i, got, want)
		}
	}
}

// extractWithProgress runs one extraction with a tracker attached and
// returns the item's event stream plus the final snapshot.
func extractWithProgress(t *testing.T, path string, resume bool, budget int64) ([]obs.ProgressEvent, obs.ProgressValue, error) {
	t.Helper()
	z := getZoo(t)
	victim := z.FineTuned[0]
	tr := obs.NewProgress()
	tr.SetTotalItems(1)
	var events []obs.ProgressEvent
	tr.OnEvent(func(ev obs.ProgressEvent) { events = append(events, ev) })
	oracle := sidechannel.NewOracle(victim.Model())
	ex := &Extractor{
		Pre:            victim.Pretrained.Model(),
		Oracle:         oracle,
		Cfg:            DefaultConfig(),
		Victim:         victim.Model().Predict,
		CheckpointPath: path,
		Resume:         resume,
		ReadBudget:     budget,
		Progress:       tr.Item(victim.Name),
	}
	_, _, err := ex.Run(victim.Task.Labels, victim.Dev)
	return events, tr.Snapshot(), err
}

// TestExtractionProgressMonotoneAndResumeExact drives the tentpole
// contract at the extract layer: completed units never regress, the
// final fraction is exactly 1.0, and an interrupted-then-resumed run
// ratchets through a prefix-exact subset of the uninterrupted run's
// sim-unit sequence, ending on identical totals.
func TestExtractionProgressMonotoneAndResumeExact(t *testing.T) {
	unitSeq := func(events []obs.ProgressEvent) []int64 {
		var seq []int64
		for _, ev := range events {
			if ev.Kind == obs.ProgressUnits {
				seq = append(seq, ev.Completed)
			}
		}
		return seq
	}
	checkMonotone := func(events []obs.ProgressEvent) {
		t.Helper()
		var last int64
		for _, ev := range events {
			if ev.Completed < last {
				t.Fatalf("completed regressed: %d after %d (event %+v)", ev.Completed, last, ev)
			}
			last = ev.Completed
			if ev.Planned > 0 && ev.Completed > ev.Planned {
				t.Fatalf("completed %d exceeds planned %d", ev.Completed, ev.Planned)
			}
		}
	}

	// Reference: uninterrupted.
	refEvents, refSnap, err := extractWithProgress(t, "", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkMonotone(refEvents)
	if refSnap.Fraction != 1.0 {
		t.Fatalf("final fraction = %g, want exactly 1.0", refSnap.Fraction)
	}
	if refSnap.PlannedUnits == 0 || refSnap.CompletedUnits != refSnap.PlannedUnits {
		t.Fatalf("final units = %d/%d, want equal and nonzero",
			refSnap.CompletedUnits, refSnap.PlannedUnits)
	}

	// Interrupt partway (budget at half the uninterrupted physical cost),
	// then resume from the checkpoint.
	path := filepath.Join(t.TempDir(), "victim.ckpt")
	half := refSnapBudget(t)
	intEvents, intSnap, err := extractWithProgress(t, path, false, half)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted at budget %d, got %v", half, err)
	}
	checkMonotone(intEvents)
	if intSnap.Fraction >= 1 || intSnap.CompletedUnits == 0 {
		t.Fatalf("interrupted snapshot = %+v, want partial progress", intSnap)
	}
	resEvents, resSnap, err := extractWithProgress(t, path, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkMonotone(resEvents)
	if resSnap.Fraction != 1.0 || resSnap.PlannedUnits != refSnap.PlannedUnits ||
		resSnap.CompletedUnits != refSnap.CompletedUnits {
		t.Fatalf("resumed final = %+v, uninterrupted = %+v", resSnap, refSnap)
	}

	// Resume-exactness: the interrupted run's boundary values followed by
	// the resumed run's fresh boundaries must replay the reference
	// sequence exactly (the resume's "restored" jump re-lands on the
	// interrupted run's last value).
	ref := unitSeq(refEvents)
	var combined []int64
	combined = append(combined, unitSeq(intEvents)...)
	for _, v := range unitSeq(resEvents) {
		if len(combined) > 0 && v == combined[len(combined)-1] {
			continue // the restored jump duplicates the last boundary
		}
		combined = append(combined, v)
	}
	if len(combined) != len(ref) {
		t.Fatalf("combined boundary count %d != reference %d\ncombined: %v\nref: %v",
			len(combined), len(ref), combined, ref)
	}
	for i := range ref {
		if combined[i] != ref[i] {
			t.Fatalf("boundary %d: combined %d != reference %d", i, combined[i], ref[i])
		}
	}
}

// refSnapBudget returns a read budget that lands mid-extraction for the
// shared test victim.
func refSnapBudget(t *testing.T) int64 {
	t.Helper()
	z := getZoo(t)
	victim := z.FineTuned[0]
	oracle := sidechannel.NewOracle(victim.Model())
	ex := &Extractor{
		Pre:    victim.Pretrained.Model(),
		Oracle: oracle,
		Cfg:    DefaultConfig(),
		Victim: victim.Model().Predict,
	}
	if _, _, err := ex.Run(victim.Task.Labels, victim.Dev); err != nil {
		t.Fatal(err)
	}
	return (oracle.BitReads + oracle.FaultedReads) / 2
}
