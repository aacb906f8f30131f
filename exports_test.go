package sfcsched

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
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
	"internal/sim.MustRun":               "test helper",
	"internal/sim.ValueRanker":           "bench-pinned (bench/decor.go)",
	"internal/workload.MustScenarioSpec": "test helper",
	"internal/workload.Uniform":          "tests only",
}

// testOnlyMembers are the exported methods and struct fields under
// internal/ that real code never calls or never sets. An entry naming a
// type covers all its fields. Same rule: entries may only be removed.
var testOnlyMembers = map[string]string{
	"internal/cluster.Config.Metrics":             "bench-pinned (bench/w_simfleet.go); counts nothing",
	"internal/cluster.Config.Seed":                "bench-pinned (bench/w_simfleet.go); unused",
	"internal/core.Scheduler.AddBatch":            "bench-pinned (bench/layers.go)",
	"internal/core.Scheduler.RequestValue":        "bench-pinned (bench/decor.go)",
	"internal/fault.Plan.Metrics":                 "bench-pinned (bench/layers.go); counts nothing",
	"internal/serve.Config.InFlight":              "bench-pinned (bench/w_servelive.go)",
	"internal/serve.Dispatcher.Submit":            "bench-pinned (bench/layers.go, bench/w_servelive.go)",
	"internal/sim.DecisionTrace.Total":            "bench-pinned (bench/w_simobserved.go)",
	"internal/sim.Options.Seed":                   "bench-pinned (bench/layers.go, bench/w_simfleet.go, bench/w_simobserved.go); unused",
	"internal/sim.Telemetry.Reset":                "bench-pinned (bench/layers.go, bench/w_simobserved.go)",
	"internal/sim.Telemetry.Rows":                 "bench-pinned (bench/w_simobserved.go)",
	"internal/workload.Open.MustGenerateArena":    "test helper",
	"internal/workload.Spec.MustGenerate":         "test helper",
	"internal/workload.Spec.MustGenerateArena":    "test helper",
	"internal/workload.Streams.MustGenerateArena": "test helper",
	"internal/serve.CalibrationConfig.Metrics":    "per-run metrics sink",
	"internal/workload.Open.Dist":                 "priority skew for ROADMAP items 6 and 7",
	"internal/workload.Client.Dist":               "priority skew for ROADMAP items 6 and 7",
}

// TestNoTestOnlyExports keeps the API of internal/ to what the commands,
// examples and the packages themselves use: an exported identifier that
// only tests or bench/ reference is surface nobody ships. It type-checks
// every non-test package outside bench/ and checks three kinds of
// exported name under internal/:
//   - a package-level identifier is used when real code refers to it;
//   - a method is used when real code calls it (or takes it as a value),
//     when real code calls an interface method of the same name, or when
//     it is String or Error;
//   - a struct field is used when real code sets it: in a composite
//     literal, as the target of an assignment or ++/--, by taking its
//     address, or by calling a pointer-receiver method on it.
func TestNoTestOnlyExports(t *testing.T) {
	x, err := loadExportIndex(".")
	if err != nil {
		t.Fatal(err)
	}
	check := func(declared map[types.Object]string, allow map[string]string, name string) {
		found := x.unused(declared, allow)
		for _, id := range found {
			if _, ok := allow[id]; !ok {
				t.Errorf("%s is exported but only tests or bench/ use it: unexport or delete it", id)
			}
		}
		for id := range allow {
			if !slices.Contains(found, id) {
				t.Errorf("%s has a real caller now (or is gone): drop it from %s", id, name)
			}
		}
	}
	check(x.idents, testOnlyExports, "testOnlyExports")
	check(x.members, testOnlyMembers, "testOnlyMembers")
}

const module = "sfcsched"

// exportIndex maps each exported object declared under internal/ to its
// guard name ("internal/sim.MustRun", "internal/serve.Config.InFlight")
// and records which of them real code uses.
type exportIndex struct {
	idents, members map[types.Object]string
	used            map[types.Object]bool
	ifaceCalls      map[string]bool // names of interface methods real code calls
}

// unused lists the guard names of the declared objects real code does not
// use. A field is reported under its type's name when allow lists the
// type as a whole.
func (x *exportIndex) unused(declared map[types.Object]string, allow map[string]string) []string {
	var found []string
	for obj, id := range declared {
		switch obj := obj.(type) {
		case *types.Func:
			if x.ifaceCalls[obj.Name()] {
				continue
			}
		case *types.Var:
			if typ := id[:strings.LastIndex(id, ".")]; obj.IsField() && allow[typ] != "" {
				id = typ
			}
		}
		if !x.used[obj] {
			found = append(found, id)
		}
	}
	slices.Sort(found)
	return slices.Compact(found)
}

// loadExportIndex type-checks the module's non-test packages under root,
// skipping bench/, and indexes them.
func loadExportIndex(root string) (*exportIndex, error) {
	x := &exportIndex{
		idents:     map[types.Object]string{},
		members:    map[types.Object]string{},
		used:       map[types.Object]bool{},
		ifaceCalls: map[string]bool{},
	}
	dirs := map[string]string{} // import path → directory
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel := filepath.ToSlash(p)
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "bench") {
			return filepath.SkipDir
		}
		dirs[path.Join(module, rel)] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset: token.NewFileSet(),
		dirs: dirs,
		pkgs: map[string]*types.Package{},
		std:  importer.Default(),
		x:    x,
	}
	for p := range dirs {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// loader type-checks module packages from source on first import and
// takes everything else from the standard importer.
type loader struct {
	fset *token.FileSet
	dirs map[string]string
	pkgs map[string]*types.Package
	std  types.Importer
	x    *exportIndex
}

func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[p]
	if !ok {
		return l.std.Import(p)
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		l.pkgs[p] = nil
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	if strings.HasPrefix(p, module+"/internal/") {
		l.x.declare(pkg, strings.TrimPrefix(p, module+"/"))
	}
	l.x.scan(files, info)
	return pkg, nil
}

// declare indexes pkg's exported package-level names, the exported
// methods of its named types (String and Error excepted) and the exported
// fields of its named struct types.
func (x *exportIndex) declare(pkg *types.Package, name string) {
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if !obj.Exported() {
			continue
		}
		x.idents[obj] = name + "." + n
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Exported() && m.Name() != "String" && m.Name() != "Error" {
				x.members[m] = name + "." + n + "." + m.Name()
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					x.members[f] = name + "." + n + "." + f.Name()
				}
			}
		}
	}
}

// scan records what files, type-checked into info, use.
func (x *exportIndex) scan(files []*ast.File, info *types.Info) {
	for _, obj := range info.Uses {
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			x.use(obj) // package-level; members are judged below
		}
	}
	for _, f := range files {
		ast.Inspect(f, x.inspector(info))
	}
}

// inspector records the methods and fields a node uses.
func (x *exportIndex) inspector(info *types.Info) func(ast.Node) bool {
	return func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() == types.FieldVal {
				return true
			}
			m := sel.Obj().(*types.Func)
			recv := m.Type().(*types.Signature).Recv().Type()
			if types.IsInterface(recv) {
				x.ifaceCalls[m.Name()] = true
				return true
			}
			x.use(m)
			if _, ptr := recv.(*types.Pointer); ptr {
				x.set(info, n.X)
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					x.use(info.Uses[kv.Key.(*ast.Ident)])
				} else {
					x.use(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				x.set(info, e)
			}
		case *ast.IncDecStmt:
			x.set(info, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				x.set(info, n.X)
			}
		}
		return true
	}
}

// set marks the field e selects as set. Setting an element of an array
// field, or a field of a struct-valued field, also sets the outer field.
func (x *exportIndex) set(info *types.Info, e ast.Expr) {
	for {
		switch s := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[s]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			x.use(sel.Obj())
			if sel.Indirect() {
				return
			}
			e = s.X
		case *ast.IndexExpr:
			if _, ok := info.Types[s.X].Type.Underlying().(*types.Array); !ok {
				return
			}
			e = s.X
		default:
			return
		}
	}
}

// use records obj, resolved to its generic origin, as used.
func (x *exportIndex) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	x.used[obj] = true
}
