package experiments

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/navarchos/pdm/internal/fleetsim"
)

// tables23Text renders Tables 2 and 3 for one small-fleet seed with
// every float as its IEEE-754 bit pattern, so a comparison is exact.
func tables23Text(t *testing.T, seed int64) string {
	t.Helper()
	cfg := fleetsim.SmallConfig()
	cfg.Seed = seed
	opts := &Options{FleetConfig: cfg}
	t2, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d table2 shared-param=%016x\n", seed, math.Float64bits(t2.Param))
	for _, tbl := range []struct {
		name string
		rows []TableRow
	}{{"table2", t2.Rows}, {"table3", t3.Rows}} {
		for _, r := range tbl.rows {
			m := r.Metrics
			fmt.Fprintf(&b, "seed=%d %s %s ph=%gd tp=%d fp=%d failures=%d f05=%016x f1=%016x p=%016x r=%016x param=%016x\n",
				seed, tbl.name, r.Setting, r.PH.Hours()/24, m.TP, m.FP, m.TotalFailures,
				math.Float64bits(m.F05), math.Float64bits(m.F1),
				math.Float64bits(m.Precision), math.Float64bits(m.Recall), math.Float64bits(r.Param))
		}
	}
	return b.String()
}

// TestTables23Golden pins the paper's headline tables bit for bit on
// fleetsim.SmallConfig() seeds 1 and 2: Table 2's shared parameter and
// every Table 2/3 row (counts, and Float64bits of F0.5/F1/P/R and the
// winning parameter). testdata/tables23_small.golden was written by the
// commit BEFORE Tables 2–3 moved onto the grid's transform-once path
// and must never be regenerated from the code under test.
func TestTables23Golden(t *testing.T) {
	raw, err := os.ReadFile("testdata/tables23_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, seed := range []int64{1, 2} {
		got.WriteString(tables23Text(t, seed))
	}
	if got.String() != string(raw) {
		t.Errorf("Tables 2–3 differ from the golden bytes:\n--- got\n%s--- want\n%s", got.String(), raw)
	}
}
