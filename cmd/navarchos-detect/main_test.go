package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/navarchos/pdm/internal/fleetsim"
)

// digest returns the hex SHA-256 of data.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// writeSmallCSV writes the small seed-1 fleet as records.csv and
// events.csv into dir.
func writeSmallCSV(t *testing.T, dir string) {
	t.Helper()
	cfg, err := fleetsim.ConfigForScale("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	f := fleetsim.Generate(cfg)
	for name, write := range map[string]func(*os.File) error{
		"records.csv": func(w *os.File) error { return fleetsim.WriteRecordsCSV(w, f.Records) },
		"events.csv":  func(w *os.File) error { return fleetsim.WriteEventsCSV(w, f.Events) },
	} {
		w, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := write(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMain runs main instead of the tests when the test binary is
// re-executed with NAVARCHOS_DETECT_ARGS set, so the tests below drive
// main's flag parsing and exit path.
func TestMain(m *testing.M) {
	if args := os.Getenv("NAVARCHOS_DETECT_ARGS"); args != "" {
		os.Args = append([]string{"navarchos-detect"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes navarchos-detect with args in dir and returns its stdout.
func run(t *testing.T, dir, args string) []byte {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "NAVARCHOS_DETECT_ARGS="+args)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("navarchos-detect %s: %v\n%s", args, err, stderr.String())
	}
	return out
}

// TestMainGolden pins what navarchos-detect prints and the -checkpoint
// file it writes, for a generated fleet (-scale small -seed 1) and for
// the same fleet read back from CSV, to SHA-256 digests written by the
// tree before the command streamed the fleet's days; they are never
// regenerated from the code under test. It runs in a scratch directory
// so the checkpoint path it prints is relative.
func TestMainGolden(t *testing.T) {
	for _, c := range []struct {
		name, args         string
		stdout, checkpoint string
	}{
		{"scale", "-scale small -seed 1 -checkpoint fleet.ckpt",
			"f1d0365aee47099c13b19d135d38cd72cb3525da0432cefc5442e6db895e550b",
			"51013f2608537a95b68aa66fc0accb9f9460698fbb22c6d9953e4e055e19ab5e"},
		{"csv", "-records records.csv -events events.csv -checkpoint fleet.ckpt",
			"48106d047745440c19360d7f3733bb3ff46e9a041f0c2be6f349c44a8108f489",
			"e708ce5dce1c924ec2ebfb88e6b464493b73396aa12b41413c7dc63284ae5f14"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.name == "csv" {
				writeSmallCSV(t, dir)
			}
			out := run(t, dir, c.args)
			ckpt, err := os.ReadFile(filepath.Join(dir, "fleet.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(out); got != c.stdout {
				t.Errorf("stdout digest = %s, want %s\n%s", got, c.stdout, out)
			}
			if got := digest(ckpt); got != c.checkpoint {
				t.Errorf("checkpoint digest = %s, want %s", got, c.checkpoint)
			}
		})
	}
}

// TestListingIndependentOfShards holds the alarm listing to the fleet,
// not to the order in which the engine's shards hand alarms back: at a
// factor low enough that several vehicles alarm, three shards print
// what one does, and twice in a row.
func TestListingIndependentOfShards(t *testing.T) {
	const args = "-scale small -seed 1 -factor 4 -shards "
	dir := t.TempDir()
	one := run(t, dir, args+"1")
	for i := 0; i < 2; i++ {
		if got := run(t, dir, args+"3"); string(got) != string(one) {
			t.Fatalf("run %d at -shards 3 prints %s, -shards 1 prints %s", i+1, digest(got), digest(one))
		}
	}
}
