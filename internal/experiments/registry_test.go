package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.csv and the EXPERIMENTS.md tables from the code")

// experimentsDoc is the paper-vs-measured document whose tables quote the
// registry rows.
const experimentsDoc = "../../EXPERIMENTS.md"

// runRow runs registry row e with p and renders it both ways, exactly as
// Run would: as CSV and as text tables.
func runRow(t *testing.T, e Experiment, p Params) (csv, text []byte) {
	t.Helper()
	var direct bytes.Buffer
	results, err := e.Run(&direct, p)
	if err != nil {
		t.Fatalf("%s at workers=%d: %v", e.ID, p.Workers, err)
	}
	c := bytes.NewBuffer(bytes.Clone(direct.Bytes()))
	render(c, results, true)
	x := bytes.NewBuffer(direct.Bytes())
	render(x, results, false)
	return c.Bytes(), x.Bytes()
}

// sameAtWorkers2 checks that row id renders its golden on two workers,
// the worker count the registry test does not cover.
func sameAtWorkers2(t *testing.T, id string) {
	t.Helper()
	var got bytes.Buffer
	if err := Run(&got, id, Params{Seed: 1, Workers: 2}, true); err != nil {
		t.Fatal(err)
	}
	want := golden(t, id)
	expect(t, bytes.Equal(got.Bytes(), want), "%s CSV diverges at workers=2:\ngot:\n%s\nwant:\n%s", id, got.Bytes(), want)
}

// golden reads testdata/<id>.csv: registry row id's output at its
// defaults, as schedbench -exp <id> -csv prints it.
func golden(t *testing.T, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenResults parses testdata/<id>.csv back into the results it
// renders, for the shape tests to check the paper's claims against.
func goldenResults(t *testing.T, id string) []*Result {
	t.Helper()
	rs, err := parseCSV(golden(t, id))
	if err != nil {
		t.Fatalf("testdata/%s.csv: %v", id, err)
	}
	return rs
}

// parseCSV reads RenderCSV output: one "# id: title" block per result.
func parseCSV(data []byte) ([]*Result, error) {
	var out []*Result
	for _, block := range strings.Split(strings.TrimSpace(string(data)), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "# ") {
			return nil, fmt.Errorf("not a CSV result block: %q", block)
		}
		id, title, _ := strings.Cut(lines[0][2:], ": ")
		header := strings.Split(lines[1], ",")
		r := &Result{ID: id, Title: title, XLabel: header[0], Series: make([]Series, len(header)-1)}
		for _, line := range lines[2:] {
			for i, c := range strings.Split(line, ",") {
				v, err := strconv.ParseFloat(c, 64)
				if err != nil || i >= len(header) {
					return nil, fmt.Errorf("%s: bad row %q", id, line)
				}
				if i == 0 {
					r.X = append(r.X, v)
				} else {
					r.Series[i-1].Name, r.Series[i-1].Y = header[i], append(r.Series[i-1].Y, v)
				}
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// Every row must render the committed bytes at its defaults — the one
// size the package evaluates at — for any worker count: the parallel
// runner has to be invisible in the output. Under -race (CI covers
// ./internal/...) the workers=8 pass also checks the cells' share-nothing
// premise. The workers=1 pass also renders the text tables that
// EXPERIMENTS.md quotes; -update rewrites the goldens and those tables.
func TestRegistryGoldenAndWorkerInvariant(t *testing.T) {
	texts := map[string][]byte{}
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join("testdata", e.ID+".csv")
			csv, text := runRow(t, e, Params{Seed: 1, Workers: 1})
			texts[e.ID] = text
			if *update {
				if err := os.WriteFile(path, csv, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want := golden(t, e.ID)
			expect(t, bytes.Equal(csv, want), "workers=1 diverges from %s:\ngot:\n%s\nwant:\n%s", path, csv, want)
			csv8, _ := runRow(t, e, Params{Seed: 1, Workers: 8})
			expect(t, bytes.Equal(csv8, want), "workers=8 diverges from %s:\ngot:\n%s\nwant:\n%s", path, csv8, want)
		})
	}
	checkDocTables(t, texts, len(texts) == len(Registry))
}

// docTable matches one registry row quoted in EXPERIMENTS.md: the row's
// rendered text tables, fenced, between exp markers.
var docTable = regexp.MustCompile("(?s)<!-- exp:([a-z0-9]+) -->\n(.*?)<!-- /exp -->")

func fenced(text []byte) string {
	return "```text\n" + strings.TrimRight(string(text), "\n") + "\n```\n"
}

// checkDocTables compares every table EXPERIMENTS.md quotes with the
// rows' rendered text, or rewrites them under -update. When every row
// ran (all), each must be quoted at least once.
func checkDocTables(t *testing.T, texts map[string][]byte, all bool) {
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	quoted := map[string]bool{}
	doc := docTable.ReplaceAllStringFunc(string(raw), func(block string) string {
		m := docTable.FindStringSubmatch(block)
		id := m[1]
		text, ok := texts[id]
		if !ok {
			if all {
				t.Errorf("EXPERIMENTS.md quotes %q, which is no registry row", id)
			}
			return block
		}
		quoted[id] = true
		want := fenced(text)
		if m[2] != want && !*update {
			t.Errorf("EXPERIMENTS.md's %s table differs from the row's output (make goldens rewrites it):\ndoc:\n%s\nrow:\n%s", id, m[2], want)
		}
		return "<!-- exp:" + id + " -->\n" + want + "<!-- /exp -->"
	})
	if *update && doc != string(raw) {
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range Registry {
		if _, ran := texts[e.ID]; all && ran && !quoted[e.ID] {
			t.Errorf("EXPERIMENTS.md quotes no table of %s", e.ID)
		}
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
