// Package fsatomic holds the repository's two crash-safe write
// disciplines.
//
// Write is the one implementation of the temp-file + rename write. Every
// durable artifact that is replaced whole — zoo store files, committed
// benchmark snapshots, the campaign service's specs and statuses — goes
// through it: the content is written to a temp file in the destination
// directory (same filesystem, so the rename is atomic), and the
// destination name only ever points at a complete file. A kill at any
// instant leaves either the previous content or the new content, never
// a truncated hybrid.
//
// OpenAppend is the one recovery routine of the append-only logs — the
// campaign event ledger and the extraction checkpoints. A kill mid-append
// leaves a torn final record; OpenAppend keeps the longest prefix of
// whole records, truncates the rest, and reopens the file for append.
//
// Neither discipline syncs: the crash model is a killed process, whose
// completed writes the kernel still holds, not a lost machine.
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

// OpenAppend opens path for appending records, creating it when absent.
// whole reports how many leading bytes of the file's content are whole
// records, or an error when the content is corrupt rather than torn;
// everything after that prefix is a torn tail and is truncated away
// before the file is reopened with O_APPEND. It returns the append handle
// and the whole records it kept.
func OpenAppend(path string, whole func(data []byte) (int, error)) (*os.File, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	n, err := whole(data)
	if err != nil {
		return nil, nil, err
	}
	if n < len(data) {
		if err := os.Truncate(path, int64(n)); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, data[:n], nil
}
