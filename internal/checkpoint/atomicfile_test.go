package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a command's checkpoint goes onto the path
// -resume may have just read, so a write that fails half way must leave
// the previous file byte-identical and nothing else in the directory,
// and a complete one must replace it whole, report its size and keep
// the previous file's mode (a first one is private to its writer).
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	previous := bytes.Repeat([]byte("previous checkpoint "), 100)
	if err := os.WriteFile(path, previous, 0o600); err != nil {
		t.Fatal(err)
	}
	// Chmod, because WriteFile's mode is masked by the umask.
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	only := func(want []byte, mode os.FileMode) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != mode {
			t.Fatalf("%s has mode %v, want %v", path, fi.Mode().Perm(), mode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s holds %d bytes, want the %d expected ones", path, len(got), len(want))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("directory holds %d entries, want only %s", len(entries), filepath.Base(path))
		}
	}

	diskFull := errors.New("disk full")
	_, err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of a new checkp")); err != nil {
			return err
		}
		return diskFull
	})
	if !errors.Is(err, diskFull) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	only(previous, 0o640)

	next := bytes.Repeat([]byte("next "), 1000)
	size, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(next)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(next)) {
		t.Fatalf("size = %d, want %d", size, len(next))
	}
	only(next, 0o640)

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(next)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	only(next, 0o600)
}
