// Package fsutil provides the crash-safe filesystem primitives shared
// by everything in this repository that persists state: atomic
// write-rename with fsync (curve files, session traces, benchmark
// records) and directory syncing (journal creation, replica promotion,
// the event log file). The contract is the classic one — after
// WriteFileAtomic returns nil, a crash at any point leaves either the
// old file or the new file at path, never a torn mix, and the new
// content survives power loss once the call returns.
package fsutil

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path atomically: the bytes go to a
// temporary file in the same directory, are fsync'd, and the temp file
// is renamed over path; finally the directory itself is synced so the
// rename is durable. On any error the temporary file is removed and the
// previous content of path (if any) is untouched.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fsutil: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("fsutil: write %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("fsutil: sync %s: %w", path, err))
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(fmt.Errorf("fsutil: chmod %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("fsutil: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("fsutil: rename %s: %w", path, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making previously completed renames and
// file creations inside it durable. Errors opening or syncing the
// directory are returned; platforms where directories cannot be synced
// report that through the same path rather than pretending durability.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsutil: open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("fsutil: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("fsutil: close dir %s: %w", dir, err)
	}
	return nil
}
