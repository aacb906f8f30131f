package sfcsched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are the package-level exported identifiers under
// internal/ that only _test.go files or bench/ use. Entries may only be
// removed: give the identifier a real caller, unexport it or delete it,
// then drop its line. bench/ is frozen, so what it pins stays until the
// benchmark is next changed (ROADMAP item 2).
var testOnlyExports = map[string]string{
	"internal/cluster.MustRun":           "test helper",
	"internal/core.EmulateFCFS":          "§4.2 preset no example or flag reaches",
	"internal/core.EmulateSSTF":          "§4.2 preset no example or flag reaches",
	"internal/core.MustDispatcher":       "test helper",
	"internal/core.MustEncapsulator":     "test helper",
	"internal/core.NewShardedScheduler":  "bench-pinned shim (bench/layers.go, bench/w_servelive.go)",
	"internal/disk.NewSqrtSeekFromMax":   "alternative seek fit no model uses",
	"internal/disk.NewSqrtSeekFromMean":  "alternative seek fit no model uses",
	"internal/sched.NewBUCKETSeek":       "extended baseline no flag reaches",
	"internal/sched.NewKamelMulti":       "extended baseline no flag reaches",
	"internal/sched.NewMultiQueueMulti":  "extended baseline no flag reaches",
	"internal/sfc.Names":                 "tests only",
	"internal/sim.MustRun":               "test helper",
	"internal/sim.SortByArrival":         "tests only",
	"internal/sim.ValueRanker":           "bench-pinned (bench/decor.go)",
	"internal/workload.MustScenarioSpec": "test helper",
	"internal/workload.Uniform":          "tests only",
}

// TestNoTestOnlyExports keeps the API of internal/ to what the commands,
// examples and the packages themselves use: an exported identifier that
// only tests or bench/ reference is surface nobody ships. References are
// matched by name — pkg.Name through an import, or a bare Name inside the
// declaring package — which is exact for package-level identifiers;
// methods and fields are not covered.
func TestNoTestOnlyExports(t *testing.T) {
	x := exportIndex{declared: map[string]bool{}, used: map[string]bool{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		x.scan(f, pkg, !strings.HasSuffix(p, "_test.go") && !strings.HasPrefix(filepath.ToSlash(p), "bench/"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for id := range x.declared {
		if !x.used[id] {
			found = append(found, strings.TrimPrefix(id, module+"/"))
		}
	}
	slices.Sort(found)
	for _, id := range found {
		if _, ok := testOnlyExports[id]; !ok {
			t.Errorf("%s is exported but only tests or bench/ use it: unexport or delete it", id)
		}
	}
	for id := range testOnlyExports {
		if !slices.Contains(found, id) {
			t.Errorf("%s has a real caller now (or is gone): drop it from testOnlyExports", id)
		}
	}
}

const module = "sfcsched"

// exportIndex maps "sfcsched/internal/sim.SortByArrival"-style names to
// whether they are declared (exported, package-level, under internal/)
// and used (referenced outside tests and bench/).
type exportIndex struct{ declared, used map[string]bool }

// scan indexes file f of package pkg; real says it is neither a test file
// nor under bench/.
func (x exportIndex) scan(f *ast.File, pkg string, real bool) {
	declare := real && strings.HasPrefix(pkg, module+"/internal/")
	imports := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	skip := map[*ast.Ident]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
			if declare && d.Recv == nil && d.Name.IsExported() {
				x.declared[pkg+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				var names []*ast.Ident
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = []*ast.Ident{s.Name}
				case *ast.ValueSpec:
					names = s.Names
				}
				for _, n := range names {
					skip[n] = true
					if declare && n.IsExported() {
						x.declared[pkg+"."+n.Name] = true
					}
				}
			}
		}
	}
	if !real {
		return
	}
	inPkg := !strings.HasSuffix(f.Name.Name, "_test")
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
				x.used[imports[id.Name]+"."+n.Sel.Name] = true
			}
		case *ast.Ident:
			if inPkg && !skip[n] {
				x.used[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}
