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

// TestMainGolden pins what navarchos-detect prints and the -checkpoint
// file it writes, for a generated fleet (-scale small -seed 1) and for
// the same fleet read back from CSV, to SHA-256 digests written by the
// tree before the command streamed the fleet's days; they are never
// regenerated from the code under test. The test re-execs itself, in a
// scratch directory so the checkpoint path it prints is relative, so
// main's flag parsing and exit path run.
func TestMainGolden(t *testing.T) {
	if args := os.Getenv("NAVARCHOS_DETECT_ARGS"); args != "" {
		os.Args = append([]string{"navarchos-detect"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, args         string
		stdout, checkpoint string
	}{
		{"scale", "-scale small -seed 1 -checkpoint fleet.ckpt",
			"f1d0365aee47099c13b19d135d38cd72cb3525da0432cefc5442e6db895e550b",
			"f9b047fb0d5572a40f1153a3b8c50f0ccb653835f421b682f67f9cc401a3b6d5"},
		{"csv", "-records records.csv -events events.csv -checkpoint fleet.ckpt",
			"48106d047745440c19360d7f3733bb3ff46e9a041f0c2be6f349c44a8108f489",
			"82531717d2cac76729ad3ce2366595491e4d6f736c3d9b9a7c7663fe5fc55eee"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.name == "csv" {
				writeSmallCSV(t, dir)
			}
			cmd := exec.Command(self, "-test.run=^TestMainGolden$")
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "NAVARCHOS_DETECT_ARGS="+c.args)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("navarchos-detect %s: %v\n%s", c.args, err, stderr.String())
			}
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
