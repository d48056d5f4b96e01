package bench

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The surface check: every exported package-level name and every
// exported method of an exported type under internal/ must be used by a
// non-test file outside the package that declares it. The users are the
// non-test files of every other package of this module, of examples/
// and of the benchmark/ module. A name nothing but its own tests uses
// is deleted with those tests; a name only its own package uses is
// unexported.
//
// A method also counts as used when its type is converted to an
// interface that another package declares and that interface requires
// the method (then neither side can be renamed alone), or to an
// interface of its own package whose method is used from outside. An
// interface method counts as used when it is called through the
// interface from outside, when a type of another package is converted
// to the interface, or when its own package calls it and it binds a
// method that is used from outside. A type counts as used when a used
// function, method, variable, constant or exported field of a used type
// mentions it.

// surfaceAllowed lists the names that stay exported with no non-test
// user, each with its reason. It may only shrink: an entry that the
// check would not report fails the test as well.
var surfaceAllowed = map[string]string{
	// The crashable in-memory filesystem and its fault schedule: the
	// fake that the crash suites of crashsafe, durable, simstate and
	// fleet put under the code they test. Production runs on faultfs.OS.
	"internal/faultfs.NewMem":               "constructs the fake; other packages' crash tests are its callers",
	"internal/faultfs.NewInjector":          "constructs the fake's fault schedule from a Profile and a seed",
	"internal/faultfs.ErrCrashed":           "what the fake returns after Crash; crashsafe's tests match it with errors.Is",
	"internal/faultfs.Mem.Crash":            "the fake's power loss: drops everything not fsynced",
	"internal/faultfs.Mem.Reopen":           "the fake's restart after Crash",
	"internal/faultfs.Mem.Content":          "reads the fake's durable bytes past the crash latch, for byte goldens",
	"internal/faultfs.Injector.Ops":         "the crash sweeps count a clean run's operations, then crash at each",
	"internal/faultfs.Injector.SetCrashAt":  "arms the crash at the k-th operation",
	"internal/faultfs.Injector.TraceString": "the schedule a failing sweep prints so the seed can be replayed",

	// The network fault injector is production code (wormload -faults
	// dials through it); these four are its test-side controls, called
	// by the gateway and fleet chaos suites and durable's sweeps.
	"internal/faultnet.Injector.DialOnly":    "faults the dial but hands back the bare conn, so a chaos test counts dials exactly",
	"internal/faultnet.Injector.SetSleep":    "replaces the stall sleep so injected latency does not slow a suite",
	"internal/faultnet.Injector.Trace":       "the recorded schedule a chaos test waits on and compares across replays",
	"internal/faultnet.Injector.TraceString": "the same schedule as text, the replay guarantee the chaos suites assert",
}

func TestExportedSurface(t *testing.T) {
	reported, stale, err := scanSurface(".", "wormcontain", surfaceAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reported {
		t.Errorf("%s: %s", r.name, r.advice())
	}
	for _, name := range stale {
		t.Errorf("%s is on the allow-list but has a non-test user outside its package, or is gone: remove the entry", name)
	}
}

// TestExportedSurfaceFixture runs the check over testdata/surface, where
// what must be reported is known, so that a loader or importer that
// sees no uses, or no packages, cannot pass TestExportedSurface.
func TestExportedSurfaceFixture(t *testing.T) {
	reported, _, err := scanSurface(filepath.Join("testdata", "surface"), "fixture", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range reported {
		got = append(got, r.name+": "+r.advice())
	}
	want := []string{
		"internal/lib.Dead: " + surfaceFinding{}.advice(),
		"internal/lib.OwnPackageOnly: " + surfaceFinding{ownPackage: true}.advice(),
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceFinding is one exported name without a user outside its
// package.
type surfaceFinding struct {
	name       string // "internal/pkg.Name" or "internal/pkg.Type.Method"
	ownPackage bool   // non-test files of its own package use it
	obj        types.Object
}

func (f surfaceFinding) advice() string {
	if f.ownPackage {
		return "only its own package uses it: unexport it"
	}
	return "nothing but tests uses it: delete it with those tests"
}

// surfacePkg is one type-checked package: non-test files only.
type surfacePkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// surfaceLoader type-checks the module's packages from source, each
// once and before its importers, and hands every import outside the
// module to one source importer, so that a type has one identity
// wherever it is mentioned and types.Implements and object comparison
// work across packages.
type surfaceLoader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*surfacePkg
	errs         []string
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *surfaceLoader) load(path string) (*surfacePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err.Error()) }}
	p.types, _ = conf.Check(path, l.fset, p.files, p.info) // errors are in l.errs
	l.pkgs[path] = p
	return p, nil
}

// surfaceUse is where the non-test uses of one checked name are.
type surfaceUse struct{ inside, outside bool }

// scanSurface type-checks every package under root (a module named
// module, nested modules read as part of it) and returns, sorted by
// name, the exported names under module/internal/ that no non-test file
// outside their package uses, not counting the allowed ones, and the
// allowed names it would not have reported anyway. Any parse or type
// error is returned.
func scanSurface(root, module string, allowed map[string]string) (unused []surfaceFinding, stale []string, err error) {
	// The source importer reads build.Default. Without cgo it takes the
	// pure-Go files of net and os/user and needs no C compiler.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &surfaceLoader{
		root: root, module: module, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*surfacePkg{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				_, err = l.load(module + "/" + filepath.ToSlash(rel))
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(l.errs) > 0 {
		return nil, nil, fmt.Errorf("type-check failed:\n%s", strings.Join(l.errs, "\n"))
	}
	if len(l.pkgs) == 0 {
		return nil, nil, fmt.Errorf("no packages under %s", root)
	}

	a := &surfaceAnalysis{l: l, use: map[types.Object]*surfaceUse{}}
	for _, p := range l.pkgs {
		if strings.HasPrefix(p.types.Path(), module+"/internal/") {
			a.declare(p)
		}
	}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if u := a.use[surfaceOrigin(obj)]; u != nil {
				if obj.Pkg() == p.types {
					u.inside = true
				} else {
					u.outside = true
				}
			}
		}
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			a.conversions(p, f, nil)
		}
	}
	// The standard library asks a value of any type for these at run
	// time: fmt when it prints one, net and net/http when a listener or
	// a dial returns an error.
	a.implementers(types.Universe.Lookup("error").Type())
	for _, name := range [][2]string{{"fmt", "Stringer"}, {"net", "Error"}} {
		pkg, err := l.std.Import(name[0])
		if err != nil {
			return nil, nil, err
		}
		a.implementers(pkg.Scope().Lookup(name[1]).Type())
	}
	for changed := true; changed; {
		changed = false
		for _, s := range a.samePkg {
			mu, iu := a.use[s.method], a.use[s.iface]
			// The two names cannot change apart. The method is needed as
			// far as the interface's is; the interface's, if its own
			// package calls it, as far as the method it is bound to.
			if iu.outside != mu.outside && (iu.outside || iu.inside) {
				iu.outside, mu.outside, changed = true, true, true
			}
		}
	}
	a.mentions()

	// An allowed name counts as used from outside, so the types its
	// signature mentions do too; one the check would not have reported
	// is stale.
	reported := a.unused()
	for name := range allowed {
		if i := slices.IndexFunc(reported, func(f surfaceFinding) bool { return f.name == name }); i >= 0 {
			a.use[reported[i].obj].outside = true
		} else {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	a.mentions()
	return a.unused(), stale, nil
}

// unused lists, sorted by name, the checked names not used from outside
// their package.
func (a *surfaceAnalysis) unused() []surfaceFinding {
	var out []surfaceFinding
	for obj, u := range a.use {
		if u.outside {
			continue
		}
		name := strings.TrimPrefix(obj.Pkg().Path(), a.l.module+"/") + "."
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				name += surfaceNamed(recv.Type()).Name() + "."
			}
		}
		out = append(out, surfaceFinding{name: name + obj.Name(), ownPackage: u.inside, obj: obj})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// surfaceOrigin maps a method or field of an instantiated generic type
// to its declaration.
func surfaceOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// surfaceNamed returns the type name behind a receiver type.
func surfaceNamed(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

type surfaceAnalysis struct {
	l   *surfaceLoader
	use map[types.Object]*surfaceUse // every checked name
	// samePkg pairs a method with the method of an interface of its own
	// package that its type is converted to.
	samePkg []struct{ method, iface types.Object }
}

// declare enters p's exported package-level names, the exported methods
// of its exported types and the exported methods its exported
// interfaces spell out.
func (a *surfaceAnalysis) declare(p *surfacePkg) {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		a.use[obj] = &surfaceUse{}
		named, ok := obj.Type().(*types.Named)
		if _, isType := obj.(*types.TypeName); !ok || !isType {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				a.use[m] = &surfaceUse{}
			}
		}
		if it, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumExplicitMethods(); i++ {
				if m := it.ExplicitMethod(i); m.Exported() {
					a.use[m] = &surfaceUse{}
				}
			}
		}
	}
}

// conversions walks n for every place a value becomes an interface
// value: assignments, call arguments, returns (sig is the enclosing
// function's signature), composite literal elements, channel sends,
// conversions, and type assertions and switches to an interface type,
// which any implementing type of the module may satisfy.
func (a *surfaceAnalysis) conversions(p *surfacePkg, n ast.Node, sig *types.Signature) {
	info := p.info
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				a.conversions(p, n.Body, info.Defs[n.Name].Type().(*types.Signature))
			}
			return false
		case *ast.FuncLit:
			a.conversions(p, n.Body, info.TypeOf(n).(*types.Signature))
			return false
		case *ast.ReturnStmt:
			a.assign(info, sig.Results().Len(), func(i int) types.Type { return sig.Results().At(i).Type() }, n.Results)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				a.assign(info, len(n.Lhs), func(i int) types.Type { return info.TypeOf(n.Lhs[i]) }, n.Rhs)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				a.assign(info, len(n.Names), func(int) types.Type { return info.TypeOf(n.Type) }, n.Values)
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				a.convert(ch.Elem(), info.TypeOf(n.Value))
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 {
					a.convert(tv.Type, info.TypeOf(n.Args[0]))
				}
				break
			}
			ft := info.TypeOf(n.Fun)
			if ft == nil {
				break
			}
			fsig, ok := ft.Underlying().(*types.Signature)
			if !ok {
				break
			}
			a.assign(info, len(n.Args), func(i int) types.Type {
				last := fsig.Params().Len() - 1
				if !fsig.Variadic() || i < last {
					if i > last {
						return nil
					}
					return fsig.Params().At(i).Type()
				}
				if s, ok := fsig.Params().At(last).Type().(*types.Slice); ok && !n.Ellipsis.IsValid() {
					return s.Elem()
				}
				return fsig.Params().At(last).Type()
			}, n.Args)
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				break
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok { // elided &T in a []*T literal
				t = ptr.Elem()
			}
			for i, e := range n.Elts {
				kv, keyed := e.(*ast.KeyValueExpr)
				if keyed {
					e = kv.Value
				}
				switch u := t.Underlying().(type) {
				case *types.Struct:
					if !keyed {
						a.convert(u.Field(i).Type(), info.TypeOf(e))
					} else if f, _, _ := types.LookupFieldOrMethod(t, true, p.types, kv.Key.(*ast.Ident).Name); f != nil {
						a.convert(f.Type(), info.TypeOf(e))
					}
				case *types.Slice:
					a.convert(u.Elem(), info.TypeOf(e))
				case *types.Array:
					a.convert(u.Elem(), info.TypeOf(e))
				case *types.Map:
					a.convert(u.Elem(), info.TypeOf(e))
					if keyed {
						a.convert(u.Key(), info.TypeOf(kv.Key))
					}
				}
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				a.implementers(info.TypeOf(n.Type))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if tv := info.Types[e]; tv.IsType() {
						a.implementers(tv.Type)
					}
				}
			}
		}
		return true
	})
}

// assign converts each of values to the type dst gives for its place;
// one call that yields all n values is taken apart.
func (a *surfaceAnalysis) assign(info *types.Info, n int, dst func(int) types.Type, values []ast.Expr) {
	if len(values) == 1 && n > 1 {
		if tuple, ok := info.TypeOf(values[0]).(*types.Tuple); ok && tuple.Len() == n {
			for i := 0; i < n; i++ {
				a.convert(dst(i), tuple.At(i).Type())
			}
		}
		return
	}
	for i, v := range values {
		if i < n {
			a.convert(dst(i), info.TypeOf(v))
		}
	}
}

// convert records that a value of type src becomes one of type dst. If
// dst is an interface and src is not, each method dst requires is used
// on src: from outside when another package declares that interface
// method, otherwise as far as the interface method itself is.
func (a *surfaceAnalysis) convert(dst, src types.Type) {
	if dst == nil || src == nil || types.IsInterface(src) {
		return
	}
	if _, ok := dst.(*types.TypeParam); ok {
		return
	}
	it, ok := dst.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		im := it.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(src, true, im.Pkg(), im.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		mu, iu := a.use[m.Origin()], a.use[im.Origin()]
		switch {
		case m.Pkg() != im.Pkg():
			if mu != nil {
				mu.outside = true
			}
			if iu != nil {
				iu.outside = true
			}
		case mu != nil:
			mu.inside = true
			if iu != nil {
				a.samePkg = append(a.samePkg, struct{ method, iface types.Object }{m.Origin(), im.Origin()})
			}
		}
	}
}

// implementers converts every named type of the module that implements
// the interface type t to it.
func (a *surfaceAnalysis) implementers(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	for _, p := range a.l.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if ptr := types.NewPointer(tn.Type()); types.Implements(ptr, it) {
				a.convert(t, ptr)
			}
		}
	}
}

// mentions spreads use from every name used outside its package to the
// type names its type mentions, and from those on.
func (a *surfaceAnalysis) mentions() {
	var work []types.Object
	for obj, u := range a.use {
		if u.outside {
			work = append(work, obj)
		}
	}
	seen := map[types.Type]bool{}
	var mention func(t types.Type)
	mention = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			a.mentioned(t.Obj(), &work)
			mention(types.Unalias(t))
		case *types.Named:
			for i := 0; i < t.TypeArgs().Len(); i++ {
				mention(t.TypeArgs().At(i))
			}
			if a.use[t.Obj()] != nil {
				a.mentioned(t.Obj(), &work)
			} else if t.Obj().Pkg() != nil && strings.HasPrefix(t.Obj().Pkg().Path(), a.l.module+"/") {
				mention(t.Underlying()) // an unexported type still hands out its exported fields
			}
		case *types.Pointer:
			mention(t.Elem())
		case *types.Slice:
			mention(t.Elem())
		case *types.Array:
			mention(t.Elem())
		case *types.Chan:
			mention(t.Elem())
		case *types.Map:
			mention(t.Key())
			mention(t.Elem())
		case *types.Signature:
			mention(t.Params())
			mention(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				mention(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					mention(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				mention(t.Method(i).Type())
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			mention(tn.Type().Underlying())
			continue
		}
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				mention(recv.Type())
			}
		}
		mention(obj.Type())
	}
}

// mentioned marks a checked type name used from outside and queues it.
func (a *surfaceAnalysis) mentioned(tn *types.TypeName, work *[]types.Object) {
	if u := a.use[tn]; u != nil && !u.outside {
		u.outside = true
		*work = append(*work, tn)
	}
}
