package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// fileDigest returns the hex SHA-256 of the file at path.
func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestMainGolden pins the files navarchos-gen writes at -scale small
// -seed 1 to SHA-256 digests written by the tree before the command
// streamed the fleet's days; they are never regenerated from the code
// under test. The test re-execs itself so main's flag parsing and exit
// path run.
func TestMainGolden(t *testing.T) {
	if os.Getenv("NAVARCHOS_GEN_HELPER") == "1" {
		os.Args = []string{"navarchos-gen", "-scale", "small", "-seed", "1", "-out", os.Getenv("NAVARCHOS_GEN_OUT")}
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainGolden$")
	cmd.Env = append(os.Environ(), "NAVARCHOS_GEN_HELPER=1", "NAVARCHOS_GEN_OUT="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("navarchos-gen: %v\n%s", err, out)
	}
	for name, want := range map[string]string{
		"records.csv": "365bbfc969506e028121fb59d71ca89799614c0621f38ff6d7d657fc6acaf253",
		"events.csv":  "3aa6ccb3115494c9005adf3a257632bba4587fe39767b325f63495e564cd1b49",
	} {
		if got := fileDigest(t, filepath.Join(dir, name)); got != want {
			t.Errorf("%s digest = %s, want %s", name, got, want)
		}
	}
}
