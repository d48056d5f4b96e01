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
	"regexp"
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
		"internal/lib.Shade: " + surfaceFinding{ownPackage: true}.advice(),
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

// runtimeInterfaces returns the interfaces whose methods the standard
// library asks a value of any type for at run time: fmt when it prints
// one, net and net/http when a listener or a dial returns an error.
func (l *surfaceLoader) runtimeInterfaces() ([]types.Type, error) {
	out := []types.Type{types.Universe.Lookup("error").Type()}
	for _, name := range [][2]string{{"fmt", "Stringer"}, {"net", "Error"}} {
		pkg, err := l.std.Import(name[0])
		if err != nil {
			return nil, err
		}
		out = append(out, pkg.Scope().Lookup(name[1]).Type())
	}
	return out, nil
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
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Types:     map[ast.Expr]types.TypeAndValue{},
		Instances: map[*ast.Ident]types.Instance{},
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

// loadedModules keeps each type-checked tree, so that the surface check
// and the reachability pass share one type-check.
var loadedModules = map[string]*surfaceLoader{}

// loadModule type-checks every package under root (a module named
// module, nested modules read as part of it), once per root. Any parse
// or type error is returned.
func loadModule(root, module string) (*surfaceLoader, error) {
	if l := loadedModules[root]; l != nil {
		return l, nil
	}
	// The source importer reads build.Default. Without cgo it takes the
	// pure-Go files of net and os/user and needs no C compiler.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &surfaceLoader{
		root: root, module: module, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*surfacePkg{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if skipDir(root, path, d) {
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
		return nil, err
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("type-check failed:\n%s", strings.Join(l.errs, "\n"))
	}
	if len(l.pkgs) == 0 {
		return nil, fmt.Errorf("no packages under %s", root)
	}
	loadedModules[root] = l
	return l, nil
}

// skipDir reports whether the module walk leaves out the directory d at
// path: testdata and hidden directories below root.
func skipDir(root, path string, d fs.DirEntry) bool {
	name := d.Name()
	return d.IsDir() && path != root && (name == "testdata" || name[0] == '.' || name[0] == '_')
}

// scanSurface returns, sorted by name, the exported names under
// module/internal/ that no non-test file outside their package uses,
// not counting the allowed ones, and the allowed names it would not have
// reported anyway.
func scanSurface(root, module string, allowed map[string]string) (unused []surfaceFinding, stale []string, err error) {
	l, err := loadModule(root, module)
	if err != nil {
		return nil, nil, err
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
			walkConversions(p.info, p.types, f, nil, a.convert, a.implementers)
		}
	}
	// A method kept only by the standard library's run-time calls is
	// used, but does not make its type used: a type nothing else names
	// is reported even if fmt could print it.
	usedBefore := map[types.Object]bool{}
	for obj, u := range a.use {
		usedBefore[obj] = u.outside
	}
	runtime, err := l.runtimeInterfaces()
	if err != nil {
		return nil, nil, err
	}
	for _, t := range runtime {
		a.implementers(t)
	}
	a.runtimeOnly = map[types.Object]bool{}
	for obj, u := range a.use {
		if u.outside && !usedBefore[obj] {
			a.runtimeOnly[obj] = true
		}
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
		out = append(out, surfaceFinding{name: surfaceName(a.l.module, obj), ownPackage: u.inside, obj: obj})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// surfaceName names a package-level name or method of module:
// "internal/pkg.Name" or "internal/pkg.Type.Method".
func surfaceName(module string, obj types.Object) string {
	name := strings.TrimPrefix(obj.Pkg().Path(), module+"/") + "."
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			name += surfaceNamed(recv.Type()).Name() + "."
		}
	}
	return name + obj.Name()
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
	// runtimeOnly holds the methods used from outside only because the
	// standard library calls them at run time.
	runtimeOnly map[types.Object]bool
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

// walkConversions walks n for every place a value becomes an interface
// value and hands convert its destination and source type:
// assignments, call arguments, returns (sig is the enclosing function's
// signature), composite literal elements, channel sends and conversions.
// It hands assert the target type of every type assertion and type
// switch case, which a value of any type the module converts to an
// interface may satisfy.
func walkConversions(info *types.Info, pkg *types.Package, n ast.Node, sig *types.Signature, convert func(dst, src types.Type), assert func(types.Type)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				walkConversions(info, pkg, n.Body, info.Defs[n.Name].Type().(*types.Signature), convert, assert)
			}
			return false
		case *ast.FuncLit:
			walkConversions(info, pkg, n.Body, info.TypeOf(n).(*types.Signature), convert, assert)
			return false
		case *ast.ReturnStmt:
			assignConversions(info, sig.Results().Len(), func(i int) types.Type { return sig.Results().At(i).Type() }, n.Results, convert)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				assignConversions(info, len(n.Lhs), func(i int) types.Type { return info.TypeOf(n.Lhs[i]) }, n.Rhs, convert)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				assignConversions(info, len(n.Names), func(int) types.Type { return info.TypeOf(n.Type) }, n.Values, convert)
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				convert(ch.Elem(), info.TypeOf(n.Value))
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 {
					convert(tv.Type, info.TypeOf(n.Args[0]))
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
			assignConversions(info, len(n.Args), func(i int) types.Type {
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
			}, n.Args, convert)
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
						convert(u.Field(i).Type(), info.TypeOf(e))
					} else if f, _, _ := types.LookupFieldOrMethod(t, true, pkg, kv.Key.(*ast.Ident).Name); f != nil {
						convert(f.Type(), info.TypeOf(e))
					}
				case *types.Slice:
					convert(u.Elem(), info.TypeOf(e))
				case *types.Array:
					convert(u.Elem(), info.TypeOf(e))
				case *types.Map:
					convert(u.Elem(), info.TypeOf(e))
					if keyed {
						convert(u.Key(), info.TypeOf(kv.Key))
					}
				}
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				assert(info.TypeOf(n.Type))
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if tv := info.Types[e]; tv.IsType() {
						assert(tv.Type)
					}
				}
			}
		}
		return true
	})
}

// assignConversions converts each of values to the type dst gives for
// its place; one call that yields all n values is taken apart.
func assignConversions(info *types.Info, n int, dst func(int) types.Type, values []ast.Expr, convert func(dst, src types.Type)) {
	if len(values) == 1 && n > 1 {
		if tuple, ok := info.TypeOf(values[0]).(*types.Tuple); ok && tuple.Len() == n {
			for i := 0; i < n; i++ {
				convert(dst(i), tuple.At(i).Type())
			}
		}
		return
	}
	for i, v := range values {
		if i < n {
			convert(dst(i), info.TypeOf(v))
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
		if a.runtimeOnly[obj] {
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

// The reachability pass: every func, method, type and const declared in
// a non-test file under internal/ must be reachable from a main, an init
// or a package-level variable initializer in a non-test file of the
// module, of examples/ or of benchmark/. A declaration reaches every
// name it mentions. A method is reached when reached code names it, or
// when reached code converts a value of its receiver type to an
// interface that requires it and reached code calls an interface method
// of that name (rapid type analysis); an interface the standard library
// declares counts as called, and so do error, fmt.Stringer and net.Error
// on any value converted to an interface at all. A blank `var _ I = v`
// assertion is neither a root nor a conversion. Whatever is left is
// deleted with the tests that check only it.
//
// An exported field of a struct type declared there is one more such
// declaration: it is reached when reached code writes it, by a composite
// literal element (keyed or positional), by an assignment or ++/-- to
// x.F (also through an index, a star or parentheses) or by taking &x.F.
// Reading it does not count, and neither does a zero-value default: an
// assignment to x.F directly inside an if whose condition compares x.F
// with ==, <= or <. A field no program sets is no knob: delete it, make
// it a constant, or unexport it as a seam for its own package's tests.

// reachAllowed lists the declarations no program reaches that stay:
// references a test of live code compares against, and fields that
// tests of another package set under live code. Each reason names
// that test. An entry is a root of its own, so what it reaches needs no
// entry. The map may only shrink: an entry the pass would not report
// fails the test as well, and so does a reason that names no test, or
// names one no _test.go declares.
var reachAllowed = map[string]string{
	"internal/core.Limiter.topCounts":           "TestShardedSemanticsMatchSingle compares the striped table's per-host counts against refLimiter's",
	"internal/core.SketchLimiter.bitsSet":       "TestShardedSemanticsMatchSingle reads each host's register bits through liveState to compare the sketch stripes against refSketch",
	"internal/core.SketchLimiter.distinctCount": "TestSketchDecisionSemantics reads the estimate the live Observe path decides on",
	"internal/core.SketchLimiter.failureCount":  "TestSketchFailureVariantRemovesScanner reads the estimate the live ObserveFailure path decides on",
	"internal/des.Simulator.wheelTick":          "TestWheelTickRoundsDownToPowerOfTwo checks the tick the live wheel derives from its config",
	"internal/dist.Binomial.pmf":                "TestBinomialPGFAtBoundaries checks the live offspring PGF against the mass function",
	"internal/dist.Binomial.cdf":                "TestQuickBinomialCDFConsistent ties it to the pmf the live PGF is checked against",
	"internal/dist.Binomial.sample":             "TestBinomialSamplerIdenticalSequence compares the live Sampler's draws against the direct sampler",
	"internal/dist.Binomial.variance":           "TestBinomialSampleMoments scores the samplers' spread against it",
	"internal/dist.BorelTanner.sample":          "TestBorelTannerSampleMatchesMean draws Galton–Watson totals to check the live closed forms against",
	"internal/dist.Lognormal.mean":              "TestLognormalMean compares the live Lognormal.Sample against it",
	"internal/dist.poisson.pmf":                 "TestPoissonLargeLambdaChiSquare scores the Poisson sampler BorelTanner.sample draws offspring from against it",
	"internal/dist.poisson.cdf":                 "TestPoissonCDFMatchesPMFSum ties it to that pmf",
	"internal/dist.poisson.quantile":            "TestPoissonQuantile inverts the cdf the sampler is scored against",
	"internal/dist.poisson.pgf":                 "TestExtinctionProbabilityFixedPoint feeds Poisson offspring to the live extinction iteration and checks the fixed point",
	"internal/dist.poisson.mean":                "TestPropertyExtinctionIteratesMonotone classifies the live iteration's Poisson offspring by it",
	"internal/epidemic.Trajectory.component":    "TestTwoFactorCountermeasuresSlowSpread reads the live TwoFactor.Integrate trajectory through it",
	"internal/fleet.MemTransport.partition":     "TestChaosFleetPartitionHealsToIdenticalLedgers cuts links between live fleet nodes with it",
	"internal/fleet.MemTransport.heal":          "TestNodeDigestSyncConverges restores the links partition cut",
	"internal/topo.writeAdjacency":              "TestTopoAdjacencyRoundTrip and FuzzAdjacencyParser compare the live ParseAdjacency against the canonical form it writes",
	"internal/faultfs.NewMem":                   "the crashable filesystem TestPublishCrashSweep and durable's TestCrashAtEveryInjectionPoint put under live code",
	"internal/faultfs.NewInjector":              "TestPublishCrashSweep and TestCrashAtEveryInjectionPoint draw their fault schedule from it",
	"internal/faultfs.Injector.Ops":             "TestPublishCrashSweep and TestCrashAtEveryInjectionPoint count a clean run's operations, then crash at each",
	"internal/faultfs.Injector.SetCrashAt":      "TestCrashAtEveryInjectionPoint arms its crash at the k-th operation with it",
	"internal/faultfs.Injector.TraceString":     "TestCrashAtEveryInjectionPoint prints the schedule on failure so the seed can be replayed",
	"internal/faultfs.Mem.Crash":                "TestCrashAtEveryInjectionPoint's power loss: drops everything not fsynced",
	"internal/faultfs.Mem.Reopen":               "TestCrashAtEveryInjectionPoint's restart after Crash",
	"internal/faultfs.Mem.Content":              "TestCheckpointBytesGolden reads the durable bytes live code wrote",
	"internal/faultfs.Mem.Create":               "faultfs.FS, which live crashsafe code calls on TestPublishCrashSweep's Mem",
	"internal/faultfs.Mem.Append":               "faultfs.FS, which live durable code calls on TestCrashAtEveryInjectionPoint's Mem",
	"internal/faultfs.Mem.ReadFile":             "faultfs.FS, which live durable code calls on TestCrashAtEveryInjectionPoint's Mem",
	"internal/faultfs.Mem.List":                 "faultfs.FS, which live crashsafe code calls on TestPublishCrashSweep's Mem",
	"internal/faultfs.Mem.Remove":               "faultfs.FS, which live crashsafe code calls on TestPublishCrashSweep's Mem",
	"internal/faultfs.Mem.Rename":               "faultfs.FS, which live crashsafe code calls on TestPublishCrashSweep's Mem",
	"internal/faultnet.Injector.DialOnly":       "TestChaosDeterministicDialSchedule faults live gateway dials but counts them on bare conns",
	"internal/faultnet.Injector.SetSleep":       "TestChaosFleetPartitionHealsToIdenticalLedgers replaces the stall sleep so injected latency does not slow the fleet chaos suite",
	"internal/faultnet.Injector.Trace":          "TestChaosRelayUnderFaults waits on the recorded schedule under the live relay",
	"internal/faultnet.Injector.TraceString":    "TestChaosDeterministicDialSchedule compares the schedule across replays of the live gateway",
	"internal/faultnet.Profile.String":          "TestParseProfileRoundTrip checks the live ParseProfile against the text it writes",
	"internal/faultfs.Profile.ShortWrite":       "TestDirShortWriteRetry tears the writes under the live simstate.Dir.Save retry with it",
}

func TestReachable(t *testing.T) {
	unreached, stale, err := scanReach(".", "wormcontain", reachAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unreached {
		t.Errorf("%s: no main, init or package-level initializer reaches it (a field: writes it): delete it with the tests that check only it, or make a field a constant or an unexported test seam", name)
	}
	for _, name := range stale {
		t.Errorf("%s is on reachAllowed but is reachable, or is gone: remove the entry", name)
	}
	unnamed, err := unnamedReasons(".", reachAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unnamed {
		t.Errorf("%s: reason %q names no test that exists: name the test that compares against it, or delete the entry", name, reachAllowed[name])
	}
}

// testRef matches a Test, Fuzz or Example function named in a reason.
var testRef = regexp.MustCompile(`\b(?:Test|Fuzz|Example)[A-Z_]\w*`)

// unnamedReasons returns, sorted, the allowed entries whose reason names
// no test function, or names one that no _test.go under root declares.
func unnamedReasons(root string, allowed map[string]string) ([]string, error) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if skipDir(root, path, d) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var unnamed []string
	for name, reason := range allowed {
		refs := testRef.FindAllString(reason, -1)
		ok := len(refs) > 0
		for _, ref := range refs {
			ok = ok && declared[ref]
		}
		if !ok {
			unnamed = append(unnamed, name)
		}
	}
	sort.Strings(unnamed)
	return unnamed, nil
}

// TestReachableFixture runs the pass over testdata/surface, where what
// must be reported is known: a name nothing calls, one only a test
// calls, a method kept only by a blank assertion, a Stringer nothing
// converts, a field only a test sets and one only a zero-value default
// sets, an allowed entry that is stale, and reasons that name no test
// or one that does not exist. A field set through a positional literal,
// one set by cmd/user and an allowed one are not reported.
func TestReachableFixture(t *testing.T) {
	root := filepath.Join("testdata", "surface")
	allowed := map[string]string{
		"internal/lib.Dead":            "allowed, so not reported; TestOnly exists but TestGone does not",
		"internal/lib.Used":            "reachable, so stale; names no test",
		"internal/lib.Options.Allowed": "allowed, so not reported; TestOnly exists",
	}
	unreached, stale, err := scanReach(root, "fixture", allowed)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Options.Defaulted",
		"internal/lib.Options.TestSet",
		"internal/lib.Shade",
		"internal/lib.Shade.String",
		"internal/lib.asserted.Do",
		"internal/lib.testOnly",
	}
	if !slices.Equal(unreached, want) {
		t.Errorf("fixture reported\n%s\nwant\n%s", strings.Join(unreached, "\n"), strings.Join(want, "\n"))
	}
	if want := []string{"internal/lib.Used"}; !slices.Equal(stale, want) {
		t.Errorf("fixture stale entries %v, want %v", stale, want)
	}
	unnamed, err := unnamedReasons(root, allowed)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/lib.Dead", "internal/lib.Used"}; !slices.Equal(unnamed, want) {
		t.Errorf("fixture entries with no existing test named %v, want %v", unnamed, want)
	}
}

// reachDecl is one package-level declaration: the names it mentions,
// the conversions to an interface it makes, and the interfaces it
// asserts to.
type reachDecl struct {
	refs    []types.Object
	writes  []*types.Var    // struct fields it sets
	convs   [][2]types.Type // {dst, src}
	asserts []types.Type
}

type reachAnalysis struct {
	module  string
	decls   map[types.Object]*reachDecl
	live    map[types.Object]bool
	work    []*reachDecl
	runtime []types.Type // interfaces the standard library calls on any value
	// called holds the interface method names reached code calls;
	// waiting, for a name not yet called, the methods a call would reach.
	called  map[string]bool
	waiting map[string][]types.Object
	boxed   map[string]types.Type // types reached code converts to an interface
	asserts map[string]types.Type // interfaces reached code asserts to
}

// scanReach returns, sorted, the declarations under module/internal/
// that nothing reaches, not counting the allowed ones, and the allowed
// names it would not have reported.
func scanReach(root, module string, allowed map[string]string) (unreached, stale []string, err error) {
	l, err := loadModule(root, module)
	if err != nil {
		return nil, nil, err
	}
	a := &reachAnalysis{
		module: module,
		decls:  map[types.Object]*reachDecl{}, live: map[types.Object]bool{},
		called: map[string]bool{}, waiting: map[string][]types.Object{},
		boxed: map[string]types.Type{}, asserts: map[string]types.Type{},
	}
	if a.runtime, err = l.runtimeInterfaces(); err != nil {
		return nil, nil, err
	}
	checked := map[string]types.Object{}
	check := func(p *surfacePkg, obj types.Object) {
		if obj.Name() == "_" || !strings.HasPrefix(p.types.Path(), module+"/internal/") {
			return
		}
		name := surfaceName(module, obj)
		checked[name] = obj
		if tn, ok := obj.(*types.TypeName); !ok || tn.IsAlias() {
			return
		}
		if st, ok := obj.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					checked[name+"."+f.Name()] = f
				}
			}
		}
	}
	var roots []*reachDecl
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					decl := a.declare(p, d)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, decl)
						continue
					}
					a.decls[obj] = decl
					check(p, obj)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[spec.Name]
							a.decls[obj] = a.declare(p, spec)
							check(p, obj)
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								if slices.ContainsFunc(spec.Names, func(id *ast.Ident) bool { return id.Name != "_" }) {
									roots = append(roots, a.declare(p, spec))
								}
								continue
							}
							for _, id := range spec.Names {
								obj := p.info.Defs[id]
								decl := a.declare(p, spec)
								// A const of an iota run repeats the type
								// of the spec above it without naming it.
								if n, ok := obj.Type().(*types.Named); ok {
									decl.refs = append(decl.refs, n.Obj())
								}
								a.decls[obj] = decl
								check(p, obj)
							}
						}
					}
				}
			}
		}
	}
	a.work = roots
	a.run()
	// An allowed name is a root of its own, so what it reaches is
	// reached too; one reached already is stale.
	for name := range allowed {
		if obj, ok := checked[name]; !ok || a.live[obj] {
			stale = append(stale, name)
		}
	}
	for name := range allowed {
		if obj, ok := checked[name]; ok {
			a.reach(obj)
		}
	}
	a.run()
	for name, obj := range checked {
		if !a.live[obj] {
			unreached = append(unreached, name)
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale, nil
}

// run handles queued declarations until none is left.
func (a *reachAnalysis) run() {
	for len(a.work) > 0 {
		d := a.work[len(a.work)-1]
		a.work = a.work[:len(a.work)-1]
		for _, obj := range d.refs {
			a.ref(obj)
		}
		for _, f := range d.writes {
			a.reach(f)
		}
		for _, c := range d.convs {
			a.convert(c[0], c[1])
		}
		for _, t := range d.asserts {
			a.assert(t)
		}
	}
}

// declare collects what the declaration n of package p mentions.
func (a *reachAnalysis) declare(p *surfacePkg, n ast.Node) *reachDecl {
	d := &reachDecl{}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		// A field is live when reached code writes it, not reads it.
		if obj := p.info.Uses[id]; obj != nil {
			if v, ok := obj.(*types.Var); !ok || !v.IsField() {
				d.refs = append(d.refs, surfaceOrigin(obj))
			}
		}
		// An instantiation converts each type argument to its
		// constraint.
		if inst, ok := p.info.Instances[id]; ok {
			var params *types.TypeParamList
			switch obj := p.info.Uses[id].(type) {
			case *types.Func:
				params = obj.Type().(*types.Signature).TypeParams()
			case *types.TypeName:
				params = obj.Type().(*types.Named).TypeParams()
			}
			for i := 0; params != nil && i < params.Len(); i++ {
				d.convs = append(d.convs, [2]types.Type{params.At(i).Constraint(), inst.TypeArgs.At(i)})
			}
		}
		return true
	})
	walkConversions(p.info, p.types, n, nil, func(dst, src types.Type) {
		d.convs = append(d.convs, [2]types.Type{dst, src})
	}, func(t types.Type) { d.asserts = append(d.asserts, t) })
	d.writes = fieldWrites(p.info, n)
	return d
}

// fieldWrites returns the struct fields n sets: by a composite literal
// element, keyed or positional; by an assignment or ++/-- to x.F, also
// through an index, a star or parentheses; or by taking &x.F. An
// assignment to x.F directly inside an if whose condition compares x.F
// with ==, <= or < is a zero-value default, not a write.
func fieldWrites(info *types.Info, n ast.Node) []*types.Var {
	var writes []*types.Var
	defaults := map[ast.Stmt][]*types.Var{} // statement -> fields its if compares
	write := func(e ast.Expr, defaulted []*types.Var) {
		if f := writtenField(info, e); f != nil && !slices.Contains(defaulted, f) {
			writes = append(writes, f)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				break
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok { // elided &T in a []*T literal
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						writes = append(writes, f.Origin())
					}
				} else {
					writes = append(writes, st.Field(i).Origin())
				}
			}
		case *ast.IfStmt:
			compared := comparedFields(info, n.Cond)
			for _, s := range n.Body.List {
				defaults[s] = compared
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs, defaults[n])
			}
		case *ast.IncDecStmt:
			write(n.X, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X, nil)
			}
		}
		return true
	})
	return writes
}

// writtenField returns the field F that setting e, x.F through any
// index, star or parentheses, writes to.
func writtenField(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if f, ok := info.Uses[x.Sel].(*types.Var); ok && f.IsField() {
				return f.Origin()
			}
			return nil
		default:
			return nil
		}
	}
}

// comparedFields returns the fields cond, split on && and ||, compares
// with ==, <= or <.
func comparedFields(info *types.Info, cond ast.Expr) []*types.Var {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND, token.LOR:
			return append(comparedFields(info, c.X), comparedFields(info, c.Y)...)
		case token.EQL, token.LEQ, token.LSS:
			if sel, ok := ast.Unparen(c.X).(*ast.SelectorExpr); ok {
				if f, ok := info.Uses[sel.Sel].(*types.Var); ok && f.IsField() {
					return []*types.Var{f.Origin()}
				}
			}
		}
	}
	return nil
}

// reach marks obj live and queues its declaration.
func (a *reachAnalysis) reach(obj types.Object) {
	if a.live[obj] {
		return
	}
	a.live[obj] = true
	if d := a.decls[obj]; d != nil {
		a.work = append(a.work, d)
	}
}

// ref handles one name reached code mentions: a method of an interface
// is a call through it, anything else is reached.
func (a *reachAnalysis) ref(obj types.Object) {
	f, ok := obj.(*types.Func)
	if !ok {
		a.reach(obj)
		return
	}
	if recv := f.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
		a.reach(obj)
		return
	}
	key := reachKey(f)
	if a.called[key] {
		return
	}
	a.called[key] = true
	for _, m := range a.waiting[key] {
		a.reach(m)
	}
	delete(a.waiting, key)
}

// reachKey names an interface method for matching calls to
// implementations: an unexported name only within its package.
func reachKey(f *types.Func) string {
	if f.Exported() {
		return f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// convert records that reached code turns a value of type src into one
// of the interface type dst.
func (a *reachAnalysis) convert(dst, src types.Type) {
	if dst == nil || src == nil || types.IsInterface(src) {
		return
	}
	if _, ok := src.(*types.TypeParam); ok {
		return
	}
	it, ok := dst.Underlying().(*types.Interface)
	if !ok {
		return
	}
	if key := types.TypeString(src, nil); a.boxed[key] == nil {
		a.boxed[key] = src
		for _, t := range a.runtime {
			a.implement(t, src)
		}
		for _, t := range a.asserts {
			a.implement(t, src)
		}
	}
	for i := 0; i < it.NumMethods(); i++ {
		im := it.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(src, true, im.Pkg(), im.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		m = m.Origin()
		switch key := reachKey(im); {
		case im.Pkg() == nil || im.Pkg().Path() != a.module && !strings.HasPrefix(im.Pkg().Path(), a.module+"/"):
			a.reach(m) // the standard library calls it
		case a.called[key]:
			a.reach(m)
		default:
			a.waiting[key] = append(a.waiting[key], m)
		}
	}
}

// assert records that reached code asserts an interface value to t:
// every type converted to an interface that implements t may be one.
func (a *reachAnalysis) assert(t types.Type) {
	if !types.IsInterface(t) {
		return
	}
	key := types.TypeString(t, nil)
	if a.asserts[key] != nil {
		return
	}
	a.asserts[key] = t
	for _, src := range a.boxed {
		a.implement(t, src)
	}
}

// implement converts src to the interface t if it implements it.
func (a *reachAnalysis) implement(t, src types.Type) {
	if it := t.Underlying().(*types.Interface); it.NumMethods() > 0 && types.Implements(src, it) {
		a.convert(t, src)
	}
}
