//go:build !amd64

package mat

import "testing"

// forceScalar is a no-op where the Go fallbacks are the only kernels.
func forceScalar(t *testing.T) {}

// TestSIMDModeNames: without assembly kernels the class is "scalar".
func TestSIMDModeNames(t *testing.T) {
	if got := SIMDMode(); got != "scalar" {
		t.Fatalf("SIMDMode() = %q, want scalar", got)
	}
}
