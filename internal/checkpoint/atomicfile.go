package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with what write produces, or leaves it
// untouched: the bytes go to a temporary file in path's directory, which
// is synced, closed and renamed over path, and the directory is synced
// so that the rename itself survives a crash. A reader — a -resume of
// the same path after a crash, a full disk or a failed write — therefore
// finds either the previous file or the complete new one, never a
// prefix. On error the temporary file is removed. It returns the size of
// the new file.
func WriteFileAtomic(path string, write func(io.Writer) error) (size int64, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close() // a second Close after a failed one is harmless
			os.Remove(tmp.Name())
		}
	}()
	// The new file keeps the mode of the one it replaces, as os.Create's
	// truncation would; a first checkpoint stays at CreateTemp's 0600 (it
	// holds the whole fleet's state).
	if fi, statErr := os.Stat(path); statErr == nil {
		if err = tmp.Chmod(fi.Mode().Perm()); err != nil {
			return 0, err
		}
	}
	if err = write(tmp); err != nil {
		return 0, err
	}
	if size, err = tmp.Seek(0, io.SeekCurrent); err != nil {
		return 0, err
	}
	if err = tmp.Sync(); err != nil {
		return 0, err
	}
	if err = tmp.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	d, err := os.Open(dir)
	if err != nil {
		return 0, fmt.Errorf("sync %s: %w", dir, err)
	}
	defer d.Close()
	if err = d.Sync(); err != nil {
		return 0, fmt.Errorf("sync %s: %w", dir, err)
	}
	return size, nil
}
