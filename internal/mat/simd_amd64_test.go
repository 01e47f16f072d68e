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
