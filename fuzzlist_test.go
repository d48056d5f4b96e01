package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The fuzz targets are listed by hand twice: in the CI fuzz-smoke job's
// matrix and in `make fuzz-smoke`. Each list must name exactly the
// (FuzzX, package) pairs the _test.go files declare, so a target added,
// renamed or moved without both lists fails here instead of going
// unfuzzed.
var (
	ciFuzzTarget   = regexp.MustCompile(`\{\s*name:\s*(Fuzz\w+),\s*pkg:\s*(\S+?)\s*\}`)
	makeFuzzTarget = regexp.MustCompile(`-fuzz\s+(Fuzz\w+)\s.*?(\./\S+)\s*$`)
	fuzzName       = regexp.MustCompile(`^Fuzz(?:[A-Z_]\w*)?$`)
)

func TestFuzzTargetLists(t *testing.T) {
	declared, err := declaredFuzzTargets(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no Fuzz functions found in any _test.go")
	}
	for _, src := range []struct {
		file string
		re   *regexp.Regexp
	}{
		{filepath.Join(".github", "workflows", "ci.yml"), ciFuzzTarget},
		{"Makefile", makeFuzzTarget},
	} {
		text, err := os.ReadFile(src.file)
		if err != nil {
			t.Fatal(err)
		}
		var listed []string
		for _, line := range strings.Split(string(text), "\n") {
			if m := src.re.FindStringSubmatch(line); m != nil {
				listed = append(listed, m[1]+" "+m[2])
			}
		}
		slices.Sort(listed)
		if !slices.Equal(listed, declared) {
			t.Errorf("%s lists the fuzz targets\n\t%s\nbut the _test.go files declare\n\t%s",
				src.file, strings.Join(listed, "\n\t"), strings.Join(declared, "\n\t"))
		}
	}
}

// declaredFuzzTargets returns, sorted, "FuzzX ./pkg" for every Fuzz
// function a _test.go under root declares.
func declaredFuzzTargets(root string) ([]string, error) {
	var out []string
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
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fuzzName.MatchString(fn.Name.Name) {
				out = append(out, fn.Name.Name+" ./"+filepath.ToSlash(filepath.Dir(path)))
			}
		}
		return nil
	})
	slices.Sort(out)
	return out, err
}
