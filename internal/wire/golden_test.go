package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenPath is the committed NVWIRE1 exemplar: a real frame file that
// pins the byte-level format across PRs. If the format ever changes
// incompatibly, this test fails before any deployed producer does.
// Regenerate deliberately with WIRE_GOLDEN_UPDATE=1 go test -run
// TestGoldenFrameFile ./internal/wire/ (and bump Version).
const goldenPath = "testdata/golden.nvwire"

// goldenStream is the deterministic content behind the golden file.
func goldenStream() ([]byte, error) {
	recs, evs := testStream(200, 5)
	frames, _, err := EncodeStream(nil, recs, evs, 64)
	return frames, err
}

// TestGoldenFrameFile decodes the committed golden frame file and
// requires (a) today's encoder to reproduce it byte-for-byte and (b)
// the decode to yield the expected item counts — the `make
// ingest-smoke` anchor proving the on-disk format is stable.
func TestGoldenFrameFile(t *testing.T) {
	want, err := goldenStream()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("WIRE_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(want))
	}
	got, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with WIRE_GOLDEN_UPDATE=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden file (%d bytes) no longer matches the encoder's output (%d bytes): the wire format changed — if intentional, bump Version and regenerate",
			len(got), len(want))
	}
	var dec Decoder
	var b Batch
	frames, err := decodeFrames(&dec, got, &b)
	if err != nil {
		t.Fatal(err)
	}
	recs, evs := testStream(200, 5)
	if frames == 0 || len(b.Records) != len(recs) || len(b.Events) != len(evs) {
		t.Fatalf("golden decode: %d frames, %d records, %d events; want >0, %d, %d",
			frames, len(b.Records), len(b.Events), len(recs), len(evs))
	}
}
