package fsatomic

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The crash simulation: a writer that emits half its payload and then
// dies must leave the previous file byte-identical and no temp litter —
// exactly what a kill -9 mid-write looks like to the next process.
func TestWriteCrashMidWriteLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := WriteFile(path, []byte("generation-1")); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("simulated crash")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("generation-2 partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected crash", err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "generation-1" {
		t.Fatalf("destination corrupted: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %d entries", len(entries))
	}
}

// A crash before the first generation exists must leave nothing at the
// destination (not an empty or partial file).
func TestWriteCrashOnFreshPathLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	boom := errors.New("simulated crash")
	if err := Write(path, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected crash", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial destination exists after crash: %v", err)
	}
}

func TestWriteFileReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bb" {
		t.Fatalf("content %q, want bb", got)
	}
}

// lines is a whole-records scanner for newline-terminated records.
func lines(data []byte) (int, error) {
	n := 0
	for i, c := range data {
		if c == '\n' {
			n = i + 1
		}
	}
	return n, nil
}

// A missing file is created empty; a torn final record is truncated and
// the next append lands right after the last whole record.
func TestOpenAppendTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f, kept, err := OpenAppend(path, lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 0 {
		t.Fatalf("fresh log kept %q", kept)
	}
	if _, err := f.Write([]byte("one\ntwo\nthr")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f, kept, err = OpenAppend(path, lines)
	if err != nil {
		t.Fatal(err)
	}
	if string(kept) != "one\ntwo\n" {
		t.Fatalf("kept %q, want the two whole records", kept)
	}
	if _, err := f.Write([]byte("three\n")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one\ntwo\nthree\n" {
		t.Fatalf("log %q after recovery and append", got)
	}
}

// A scanner error means corruption, not a torn tail: the file must be
// left exactly as it was.
func TestOpenAppendRefusesCorruptLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := errors.New("corrupt")
	if _, _, err := OpenAppend(path, func([]byte) (int, error) { return 0, corrupt }); !errors.Is(err, corrupt) {
		t.Fatalf("err = %v, want the scanner's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "garbage" {
		t.Fatalf("a refused log was modified: %q", got)
	}
}
