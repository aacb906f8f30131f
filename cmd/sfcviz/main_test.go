package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfcsched/internal/sfc"
)

func TestDrawContinuousCurveHasNoJumpGlyphs(t *testing.T) {
	var buf bytes.Buffer
	draw(&buf, sfc.MustNew("hilbert", 2, 8))
	out := buf.String()
	if strings.Contains(out, "○") {
		t.Errorf("continuous curve rendered a jump glyph:\n%s", out)
	}
	if !strings.Contains(out, "●") {
		t.Errorf("start glyph missing:\n%s", out)
	}
	// 8 rows of 8 cells, none left unvisited.
	if strings.Contains(out, "·") {
		t.Errorf("unvisited cells in a space-filling walk:\n%s", out)
	}
}

func TestDrawSweepShowsJumps(t *testing.T) {
	var buf bytes.Buffer
	draw(&buf, sfc.MustNew("sweep", 2, 8))
	if !strings.Contains(buf.String(), "○") {
		t.Error("sweep's line-wrap jumps should render as ○")
	}
}

func TestPrintOrderCoversGrid(t *testing.T) {
	var buf bytes.Buffer
	printOrder(&buf, sfc.MustNew("scan", 2, 4))
	out := buf.String()
	for _, want := range []string{"scan (4x4)", "15", " 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("order table missing %q:\n%s", want, out)
		}
	}
}

func TestPrintStats(t *testing.T) {
	var buf bytes.Buffer
	if err := printStats(&buf, []string{"hilbert", "spiral"}, 3, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hilbert") {
		t.Errorf("stats missing hilbert row:\n%s", out)
	}
	if !strings.Contains(out, "order-only") {
		t.Errorf("3-D spiral should report order-only:\n%s", out)
	}
	if err := printStats(&buf, []string{"nope"}, 2, 8); err == nil {
		t.Error("expected error for unknown curve")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.txt from the code")

// TestOutputGolden pins every rendering mode byte for byte: the arrow
// drawing, the order table, the curves with their own grid rounding, and
// the statistics table in two to four dimensions. -update rewrites the
// files, only for an intended change.
func TestOutputGolden(t *testing.T) {
	for file, args := range map[string][]string{
		"draw.txt":               nil,
		"order.txt":              {"-order"},
		"side16.txt":             {"-side", "16"},
		"moore-side16.txt":       {"-curve", "moore", "-side", "16"},
		"spiral-side7.txt":       {"-curve", "spiral", "-side", "7"},
		"stats.txt":              {"-stats"},
		"stats-dims3.txt":        {"-stats", "-dims", "3"},
		"stats-dims4-side16.txt": {"-stats", "-dims", "4", "-side", "16"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("sfcviz %v: %v", args, err)
		}
		path := filepath.Join("testdata", file)
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want, err := os.ReadFile(path); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("sfcviz %v differs from %s (%v):\n%s", args, path, err, buf.Bytes())
		}
	}
}
