package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// registryCSV renders one registry row at the reduced size the goldens
// were recorded at: schedbench -exp <id> -csv -requests 400 (-users 68,72).
func registryCSV(t *testing.T, id string, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	p := Params{Seed: 1, Requests: 400, Workers: workers, Users: []int{68, 72}}
	if err := Run(&buf, id, p, true); err != nil {
		t.Fatalf("%s at workers=%d: %v", id, workers, err)
	}
	return buf.Bytes()
}

// Every deterministic row must render the committed bytes — recorded from
// the hand-written loops the grid replaced, so the goldens pin the
// experiments' output, not the grid's opinion of it — and must render them
// for any worker count: the parallel runner has to be invisible in the
// output. Under -race (CI covers ./internal/...) the workers=8 pass also
// checks the cells' share-nothing premise. calibrate measures wall clock
// and is the one row left out.
func TestRegistryGoldenAndWorkerInvariant(t *testing.T) {
	for _, e := range Registry {
		if e.ID == "calibrate" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				if got := registryCSV(t, e.ID, workers); !bytes.Equal(got, want) {
					t.Errorf("workers=%d diverges from testdata/%s.csv:\ngot:\n%s\nwant:\n%s", workers, e.ID, got, want)
				}
			}
		})
	}
}

func TestAllListsEveryExperiment(t *testing.T) {
	ids := All()
	if len(ids) != len(Registry) {
		t.Fatalf("All() lists %d ids for %d registry rows", len(ids), len(Registry))
	}
	seen := map[string]bool{}
	for i, e := range Registry {
		if ids[i] != e.ID {
			t.Errorf("All()[%d] = %q, registry row is %q", i, ids[i], e.ID)
		}
		if seen[e.ID] {
			t.Errorf("registry lists %q twice", e.ID)
		}
		seen[e.ID] = true
	}
	if last := ids[len(ids)-1]; last != "ablations" {
		t.Errorf("-exp all must end with the ablation tables, ends with %q", last)
	}
	err := Run(&bytes.Buffer{}, "fig99", Params{Seed: 1}, false)
	if err == nil {
		t.Fatal("unknown id did not error")
	}
	for _, id := range ids {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error %q does not name %q", err, id)
		}
	}
}

func TestSweep(t *testing.T) {
	newResults := func() (*Result, *Result) {
		return &Result{X: []float64{10, 20, 30}}, &Result{X: []float64{10, 20, 30}}
	}
	names := []string{"b", "a"}
	for _, workers := range []int{1, 4} {
		first, second := newResults()
		err := sweep(workers, names, func(x, s int) ([]float64, error) {
			v := float64(10*x + s)
			return []float64{v, -v}, nil
		}, first, second)
		if err != nil {
			t.Fatal(err)
		}
		// Series come out in names order (not sorted), result m holds
		// value m of every cell, and point x of series s is cell (x, s).
		want := []Series{{"b", []float64{0, 10, 20}}, {"a", []float64{1, 11, 21}}}
		if !reflect.DeepEqual(first.Series, want) {
			t.Errorf("workers=%d: first result %v, want %v", workers, first.Series, want)
		}
		for s, ser := range second.Series {
			for x, y := range ser.Y {
				if y != -first.Series[s].Y[x] {
					t.Errorf("workers=%d: second result (%d,%d) = %v, want %v", workers, x, s, y, -first.Series[s].Y[x])
				}
			}
		}

		// Every cell runs; the error reported is the lowest-indexed one
		// (x-major: cell (1, 0) precedes (1, 1) and (2, 0)).
		first, second = newResults()
		err = sweep(workers, names, func(x, s int) ([]float64, error) {
			if x >= 1 {
				return nil, fmt.Errorf("cell %d,%d", x, s)
			}
			return []float64{0, 0}, nil
		}, first, second)
		if err == nil || err.Error() != "cell 1,0" {
			t.Errorf("workers=%d: got error %v, want cell 1,0", workers, err)
		}
		if len(first.Series) != 0 || len(second.Series) != 0 {
			t.Errorf("workers=%d: a failed sweep added series", workers)
		}
	}
}

func TestResultFlat(t *testing.T) {
	r := &Result{X: []float64{1, 2, 3}}
	r.flat("base", 7)
	if want := []Series{{"base", []float64{7, 7, 7}}}; !reflect.DeepEqual(r.Series, want) {
		t.Errorf("flat series %v, want %v", r.Series, want)
	}
}
