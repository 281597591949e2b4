// Package fsatomic is the repository's one implementation of the
// temp-file + rename write. Every durable artifact that a crash must not
// corrupt — zoo store files, extraction checkpoints, committed benchmark
// snapshots, the campaign service's specs and statuses — goes through
// it: the content is written to a temp file in the destination
// directory (same filesystem, so the rename is atomic), and the
// destination name only ever points at a complete file. A kill at any
// instant leaves either the previous content or the new content, never
// a truncated hybrid.
package fsatomic

import (
	"io"
	"os"
	"path/filepath"
)

// Write streams content produced by write to path atomically. If write
// (or any filesystem step) fails, the destination is untouched and the
// temp file is removed.
func Write(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// WriteFile atomically replaces path's content with data (mode 0644 for
// new files, like os.WriteFile).
func WriteFile(path string, data []byte) error {
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
