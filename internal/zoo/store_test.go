package zoo

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// storeCfg is the seconds-fast config the store tests build against.
func storeCfg() BuildConfig {
	cfg := SmallBuildConfig()
	cfg.NumPretrained = 2
	cfg.NumFineTuned = 3
	cfg.PretrainExamples = 20
	cfg.PretrainEpochs = 1
	cfg.FineTuneExamples = 20
	cfg.FineTuneEpochs = 1
	return cfg
}

func openStore(t *testing.T, cfg BuildConfig, dir string) (*Zoo, *StoreStats) {
	t.Helper()
	z, stats, err := BuildOrOpenStore(context.Background(), cfg, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	return z, stats
}

// A store-grown population must be byte-identical to an in-memory build
// of the same config — the determinism contract that makes single-entry
// retraining safe.
func TestStoreMatchesFullBuild(t *testing.T) {
	cfg := storeCfg()
	dir := t.TempDir()
	zs, stats := openStore(t, cfg, dir)
	if stats.Trained() != cfg.NumPretrained+cfg.NumFineTuned || stats.Reused != 0 {
		t.Fatalf("fresh store: trained %d, reused %d; want %d/0",
			stats.Trained(), stats.Reused, cfg.NumPretrained+cfg.NumFineTuned)
	}
	zb := MustBuild(cfg)
	if len(zs.Pretrained) != len(zb.Pretrained) || len(zs.FineTuned) != len(zb.FineTuned) {
		t.Fatalf("population %d/%d, want %d/%d",
			len(zs.Pretrained), len(zs.FineTuned), len(zb.Pretrained), len(zb.FineTuned))
	}
	for i, p := range zb.Pretrained {
		q := zs.Pretrained[i]
		if q.Name != p.Name || q.ArchName != p.ArchName || q.Profile.Seed != p.Profile.Seed {
			t.Fatalf("pretrained %d metadata mismatch", i)
		}
		sameWeights(t, p.Name, p.Model(), q.Model())
	}
	for i, f := range zb.FineTuned {
		g := zs.FineTuned[i]
		if g.Name != f.Name || g.Task.Name != f.Task.Name || g.Pretrained.Name != f.Pretrained.Name {
			t.Fatalf("finetuned %d metadata mismatch", i)
		}
		sameWeights(t, f.Name, f.Model(), g.Model())
	}
}

// A warm open trains nothing and serves lazy handles: tensors are not in
// memory until used, and Release drops them for a byte-identical reload.
func TestStoreWarmOpenIsLazy(t *testing.T) {
	cfg := storeCfg()
	dir := t.TempDir()
	openStore(t, cfg, dir)

	z, stats := openStore(t, cfg, dir)
	if stats.Trained() != 0 || stats.Reused != cfg.NumPretrained+cfg.NumFineTuned {
		t.Fatalf("warm open: trained %d, reused %d; want 0/%d",
			stats.Trained(), stats.Reused, cfg.NumPretrained+cfg.NumFineTuned)
	}
	f := z.FineTuned[0]
	if f.Loaded() {
		t.Fatal("warm-open victim resident before first use")
	}
	before := f.Model().HeadW.V.Data[0]
	if !f.Loaded() {
		t.Fatal("Model() did not load the victim")
	}
	f.Release()
	if f.Loaded() {
		t.Fatal("Release did not drop lazy tensors")
	}
	if got := f.Model().HeadW.V.Data[0]; got != before {
		t.Fatalf("reload after Release changed weights: %v != %v", got, before)
	}
	// Train/Dev regenerate on open, byte-identical to the built split.
	zb := MustBuild(cfg)
	if len(f.Train) != len(zb.FineTuned[0].Train) || len(f.Dev) != len(zb.FineTuned[0].Dev) {
		t.Fatal("regenerated train/dev split has wrong size")
	}
	for i, ex := range zb.FineTuned[0].Dev {
		got := f.Dev[i]
		if got.Label != ex.Label || len(got.Tokens) != len(ex.Tokens) {
			t.Fatal("regenerated dev split differs")
		}
		for j := range ex.Tokens {
			if got.Tokens[j] != ex.Tokens[j] {
				t.Fatal("regenerated dev split differs")
			}
		}
	}
}

// Growing the population retrains only the new entries; every existing
// model is reused (counts are excluded from entry keys on purpose).
func TestStoreIncrementalGrowth(t *testing.T) {
	cfg := storeCfg()
	dir := t.TempDir()
	openStore(t, cfg, dir)

	grown := cfg
	grown.NumFineTuned = cfg.NumFineTuned + 1
	z, stats := openStore(t, grown, dir)
	if stats.FineTunedTrained != 1 || stats.PretrainedTrained != 0 {
		t.Fatalf("grow by one victim: trained %d pretrained + %d finetuned, want 0+1",
			stats.PretrainedTrained, stats.FineTunedTrained)
	}
	if stats.Reused != cfg.NumPretrained+cfg.NumFineTuned {
		t.Fatalf("grow reused %d, want %d", stats.Reused, cfg.NumPretrained+cfg.NumFineTuned)
	}
	// The grown population is still byte-identical to a full build.
	zb := MustBuild(grown)
	sameWeights(t, "grown victim", zb.FineTuned[cfg.NumFineTuned].Model(), z.FineTuned[cfg.NumFineTuned].Model())
}

// A damaged object must be detected at open, logged, and retrained —
// alone. Each case damages the first fine-tuned object of the store the
// previous reopen repaired.
func TestStoreRetrainsCorruptObject(t *testing.T) {
	cases := []struct {
		name   string
		damage func(dir, obj string) error
	}{
		{"corrupt object", func(_, obj string) error {
			return os.WriteFile(obj, []byte("bitrot"), 0o644)
		}},
		{"missing object", func(_, obj string) error { return os.Remove(obj) }},
		// The manifest is durable input: a recorded hash of any length
		// must give a mismatch, never a panic.
		{"truncated manifest sha256", func(dir, obj string) error {
			m, err := readManifest(dir)
			if err != nil {
				return err
			}
			for i := range m.Entries {
				if m.Entries[i].Object == filepath.Base(obj) {
					m.Entries[i].SHA256 = "ab"
				}
			}
			return writeManifest(dir, m)
		}},
	}
	cfg := storeCfg()
	dir := t.TempDir()
	z1, _ := openStore(t, cfg, dir)
	objs, err := filepath.Glob(filepath.Join(dir, "objects", "*__ft-*"))
	if err != nil || len(objs) == 0 {
		t.Fatalf("no fine-tuned objects found: %v", err)
	}
	for _, tc := range cases {
		if err := tc.damage(dir, objs[0]); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		z2, stats := openStore(t, cfg, dir)
		if stats.Trained() != 1 {
			t.Fatalf("%s: retrained %d models, want exactly 1", tc.name, stats.Trained())
		}
		for i := range z1.FineTuned {
			sameWeights(t, z1.FineTuned[i].Name, z1.FineTuned[i].Model(), z2.FineTuned[i].Model())
		}
	}
}

// A knob change that alters training inputs invalidates the affected
// keys: a fine-tune budget tweak retrains every victim but reuses every
// backbone.
func TestStoreKnobChangeCascades(t *testing.T) {
	cfg := storeCfg()
	dir := t.TempDir()
	openStore(t, cfg, dir)

	tweaked := cfg
	tweaked.FineTuneEpochs = cfg.FineTuneEpochs + 1
	_, stats := openStore(t, tweaked, dir)
	if stats.PretrainedTrained != 0 || stats.FineTunedTrained != cfg.NumFineTuned {
		t.Fatalf("finetune knob change: trained %d+%d, want 0+%d",
			stats.PretrainedTrained, stats.FineTunedTrained, cfg.NumFineTuned)
	}
}

// A corrupt manifest downgrades to a warning + full rebuild, and the
// rebuilt manifest GCs objects its keys no longer reference.
func TestStoreRebuildsOnCorruptManifest(t *testing.T) {
	cfg := storeCfg()
	dir := t.TempDir()
	openStore(t, cfg, dir)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats := openStore(t, cfg, dir)
	if stats.Trained() != cfg.NumPretrained+cfg.NumFineTuned {
		t.Fatalf("corrupt manifest: trained %d, want full rebuild of %d",
			stats.Trained(), cfg.NumPretrained+cfg.NumFineTuned)
	}
}

// Orphaned objects (superseded keys) are garbage-collected once the new
// manifest is durable.
func TestStoreGCsOrphanObjects(t *testing.T) {
	cfg := storeCfg()
	dir := t.TempDir()
	openStore(t, cfg, dir)
	tweaked := cfg
	tweaked.Seed = cfg.Seed + 1 // every key moves
	openStore(t, tweaked, dir)

	des, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(des), cfg.NumPretrained+cfg.NumFineTuned; got != want {
		t.Fatalf("store holds %d objects after key change, want %d (orphans GCed)", got, want)
	}
}

// The store build is worker-count invariant, like the in-memory build:
// any parallelism writes byte-identical manifests and objects.
func TestStoreWorkerCountInvariance(t *testing.T) {
	cfg := storeCfg()
	d1, d4 := t.TempDir(), t.TempDir()
	c1, c4 := cfg, cfg
	c1.Workers, c4.Workers = 1, 4
	openStore(t, c1, d1)
	openStore(t, c4, d4)

	m1, err := os.ReadFile(filepath.Join(d1, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	m4, err := os.ReadFile(filepath.Join(d4, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m4) {
		t.Fatal("manifests differ across worker counts")
	}
	des, err := os.ReadDir(filepath.Join(d1, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		b1, err := os.ReadFile(filepath.Join(d1, "objects", de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b4, err := os.ReadFile(filepath.Join(d4, "objects", de.Name()))
		if err != nil {
			t.Fatalf("object %s missing at workers=4: %v", de.Name(), err)
		}
		if !strings.EqualFold(hashBytes(b1), hashBytes(b4)) {
			t.Fatalf("object %s differs across worker counts", de.Name())
		}
	}
}

// A version-1 store (gzipped gob objects) is refused as a whole: every
// entry retrains, the old objects are collected, and the store ends up
// byte-identical to a fresh one. The old store is simulated from a fresh
// one — version-1 manifest, objects renamed to their .gz names — because
// its content is never read.
func TestStoreMigratesV1ByRetraining(t *testing.T) {
	cfg := storeCfg()
	fresh, old := t.TempDir(), t.TempDir()
	openStore(t, cfg, fresh)
	openStore(t, cfg, old)
	man, err := readManifest(old)
	if err != nil {
		t.Fatal(err)
	}
	for i, me := range man.Entries {
		gz := strings.TrimSuffix(me.Object, ".model") + ".gz"
		if err := os.Rename(filepath.Join(old, "objects", me.Object), filepath.Join(old, "objects", gz)); err != nil {
			t.Fatal(err)
		}
		man.Entries[i].Object = gz
	}
	man.Version = 1
	if err := writeManifest(old, man); err != nil {
		t.Fatal(err)
	}

	_, stats := openStore(t, cfg, old)
	if stats.Trained() != cfg.NumPretrained+cfg.NumFineTuned || stats.Reused != 0 {
		t.Fatalf("v1 store: trained %d, reused %d; want every entry retrained", stats.Trained(), stats.Reused)
	}
	for _, name := range []string{"manifest.json", "objects"} {
		want, got := treeBytes(t, filepath.Join(fresh, name)), treeBytes(t, filepath.Join(old, name))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("migrated %s differs from a fresh store's: %d files vs %d", name, len(got), len(want))
		}
	}
}

// treeBytes maps every file under root (root itself when it is a file)
// to its content.
func treeBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[strings.TrimPrefix(path, root)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
