package sfcsched

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// nondeterministic are the places in non-test code under internal/ that
// may do what TestNoNondeterminism otherwise forbids, keyed as it reports
// them: "<file> <function>: <what>". Entries may only be removed.
var nondeterministic = map[string]string{
	"internal/obs/registry.go (*Registry).names: range over a map":   "sorts the names afterwards",
	"internal/runner/runner.go Map: go statement":                    "the worker pool; results land by index",
	"internal/serve/dispatcher.go (*Dispatcher).Start: go statement": "the live dispatcher's one worker",
	"internal/serve/calibrate.go Calibrate: clock read":              "times the live run it compares with the simulator",
	"internal/serve/serve.go NewClock: clock read":                   "the live layer runs on the wall clock",
	"internal/serve/serve.go (*Clock).elapsed: clock read":           "the live layer runs on the wall clock",
	"internal/serve/serve.go (*Clock).sleep: clock read":             "the live layer runs on the wall clock",
	"internal/serve/serve.go (*Clock).SleepUntil: clock read":        "the live layer runs on the wall clock",
}

// TestNoNondeterminism keeps every simulated run a function of its
// inputs: non-test code under internal/ may not range over a map (its
// order changes from run to run), start a goroutine, read the wall clock
// (time.Now, time.Since, time.Until) or import math/rand, except where
// nondeterministic allows it. It reuses the export guard's type-checked
// packages.
func TestNoNondeterminism(t *testing.T) {
	x, err := repoIndex()
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, cf := range x.files {
		if strings.HasPrefix(cf.name, "internal/") {
			found = append(found, nondeterminismIn(cf)...)
		}
	}
	slices.Sort(found)
	found = slices.Compact(found)
	for _, id := range found {
		if _, ok := nondeterministic[id]; !ok {
			t.Errorf("%s: simulated runs must be reproducible; remove it or justify it in nondeterministic", id)
		}
	}
	for id := range nondeterministic {
		if !slices.Contains(found, id) {
			t.Errorf("%s is gone: drop it from nondeterministic", id)
		}
	}
}

// nondeterminismIn lists what cf does that TestNoNondeterminism forbids.
func nondeterminismIn(cf checkedFile) []string {
	var found []string
	for _, imp := range cf.f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || strings.HasPrefix(p, "math/rand/") {
			found = append(found, fmt.Sprintf("%s: import %s", cf.name, p))
		}
	}
	for _, d := range cf.f.Decls {
		where := cf.name
		if fd, ok := d.(*ast.FuncDecl); ok {
			where += " " + funcName(fd)
		}
		ast.Inspect(d, func(n ast.Node) bool {
			var what string
			switch n := n.(type) {
			case *ast.RangeStmt:
				if _, ok := cf.info.Types[n.X].Type.Underlying().(*types.Map); ok {
					what = "range over a map"
				}
			case *ast.GoStmt:
				what = "go statement"
			case *ast.Ident:
				if fn, ok := cf.info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
					(fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
					what = "clock read"
				}
			}
			if what != "" {
				found = append(found, where+": "+what)
			}
			return true
		})
	}
	return found
}

// funcName renders a function declaration as "F" or "(*T).M".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if st, ok := recv.(*ast.StarExpr); ok {
		return "(*" + types.ExprString(st.X) + ")." + fd.Name.Name
	}
	return types.ExprString(recv) + "." + fd.Name.Name
}
