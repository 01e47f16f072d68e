package mat

import "testing"

// forceScalar switches the AVX and FMA dispatch off for the rest of the
// test, so the pure Go fallbacks are pinned on amd64 too (they are the
// only kernels every other architecture runs).
func forceScalar(t *testing.T) {
	avx, fma := hasAVX, hasFMA
	hasAVX, hasFMA = false, false
	t.Cleanup(func() { hasAVX, hasFMA = avx, fma })
}

// TestSIMDModeNames pins the strings benchmark/testdata's grid fixture
// is keyed on: a renamed class would silently downgrade the benchmark's
// verification to pass-vs-pass.
func TestSIMDModeNames(t *testing.T) {
	switch got := SIMDMode(); got {
	case "scalar", "avx", "avx+fma":
	default:
		t.Fatalf("SIMDMode() = %q, want scalar, avx or avx+fma", got)
	}
	forceScalar(t)
	if got := SIMDMode(); got != "scalar" {
		t.Fatalf("SIMDMode() under forceScalar = %q, want scalar", got)
	}
}
