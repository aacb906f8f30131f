package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// calibrateResult runs the calibrate row through Run with p.
func calibrateResult(t *testing.T, p Params) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	var buf bytes.Buffer
	if err := Run(&buf, "calibrate", p, true); err != nil {
		t.Fatal(err)
	}
	rs, err := parseCSV(buf.Bytes())
	if err != nil || len(rs) != 1 {
		t.Fatalf("calibrate rendered %d results (%v):\n%s", len(rs), err, buf.Bytes())
	}
	return rs[0]
}

func TestCalibrateReduced(t *testing.T) {
	res := calibrateResult(t, Params{Seed: 1, Requests: 100, Dilations: []float64{60, 120}})
	if res.ID != "calibrate" || !slices.Equal(res.X, []float64{60, 120}) {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	var names []string
	for _, s := range res.Series {
		names = append(names, s.Name)
	}
	expect(t, strings.Join(names, ",") == "mape-pct,order-r,travel-delta-pct,wall-ms", "series = %v", names)
	for i := range res.X {
		r, w := res.Series[1].Y[i], res.Series[3].Y[i]
		expect(t, r >= -1 && r <= 1, "order-r[%d] = %v out of [-1,1]", i, r)
		expect(t, w > 0, "wall-ms[%d] = %v, want positive", i, w)
	}
}

// The default sweep on a tiny trace: just proves the default
// substitution path works end to end.
func TestCalibrateEmptyDilationsUsesDefaults(t *testing.T) {
	res := calibrateResult(t, Params{Seed: 1, Requests: 40})
	expect(t, slices.Equal(res.X, []float64{2, 25, 200, 1000}), "empty Dilations should use the default sweep, got %v", res.X)
}
