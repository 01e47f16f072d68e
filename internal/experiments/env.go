package experiments

import (
	"os/exec"
	"runtime"
	"strings"

	"github.com/navarchos/pdm/internal/mat"
)

// Env is the run header benchmark/ stamps into its results: enough
// machine context to compare throughput numbers across PRs and hosts.
type Env struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GitRev is the short commit hash of the working tree, empty when
	// git is unavailable (e.g. a deployed binary outside the repo).
	GitRev string `json:"git_rev,omitempty"`
	// SIMD is the vector kernel class the CPU enabled at startup
	// ("avx+fma", "avx", "scalar").
	SIMD string `json:"simd"`
}

// CaptureEnv records the current process environment. The git revision
// is best-effort: a missing binary or repository leaves it empty rather
// than failing the benchmark.
func CaptureEnv() Env {
	e := Env{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		SIMD:       mat.SIMDMode(),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(out))
	}
	return e
}
