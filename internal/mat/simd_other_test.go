//go:build !amd64

package mat

import "testing"

// forceScalar is a no-op where the Go fallbacks are the only kernels.
func forceScalar(t *testing.T) {}
