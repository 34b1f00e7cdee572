package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/gibbs"); for external test
	// packages it carries a "_test" suffix, and for fixture packages it is
	// the path of the fixture directory relative to the fixture root.
	Path      string
	Name      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string
	Types     *types.Package
	Info      *types.Info
}

// Loader parses and type-checks packages entirely from source. Imports are
// resolved without invoking the go tool: paths inside the current module
// map onto the module tree, and everything else is looked up under
// GOROOT/src. The module is dependency-free by policy, so those two rules
// cover every import.
type Loader struct {
	Fset       *token.FileSet
	moduleRoot string
	modulePath string
	ctxt       build.Context
	imp        *srcImporter
}

// NewLoader returns a Loader rooted at the module containing dir (dir
// itself or any parent holding go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false // select pure-Go variants of stdlib packages
	l := &Loader{
		Fset:       token.NewFileSet(),
		moduleRoot: root,
		modulePath: modPath,
		ctxt:       ctxt,
	}
	l.imp = &srcImporter{loader: l, cache: make(map[string]*types.Package), loading: make(map[string]bool)}
	return l, nil
}

// ModuleRoot returns the absolute path of the module root directory.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadDir parses and type-checks the package in dir under the given import
// path. With includeTests set, in-package _test.go files are checked
// together with the package and an external test package (name_test), if
// present, is returned as a second Package.
func (l *Loader) LoadDir(dir, importPath string, includeTests bool) ([]*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); nogo {
			return nil, nil
		}
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	var pkgs []*Package
	names := append(append([]string{}, bp.GoFiles...), bp.CgoFiles...)
	if includeTests {
		names = append(names, bp.TestGoFiles...)
	}
	if len(names) > 0 {
		p, err := l.check(dir, importPath, bp.Name, names)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if includeTests && len(bp.XTestGoFiles) > 0 {
		p, err := l.check(dir, importPath+"_test", bp.Name+"_test", bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func (l *Loader) check(dir, importPath, name string, filenames []string) (*Package, error) {
	sort.Strings(filenames)
	var files []*ast.File
	var paths []string
	for _, fn := range filenames {
		full := filepath.Join(dir, fn)
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		paths = append(paths, full)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l.imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:      importPath,
		Name:      name,
		Dir:       dir,
		Fset:      l.Fset,
		Files:     files,
		Filenames: paths,
		Types:     tpkg,
		Info:      info,
	}, nil
}

// srcImporter resolves imports by type-checking their packages from
// source, recursively, with a per-loader cache. Only non-test files
// participate, mirroring how real imports see a package.
type srcImporter struct {
	loader  *Loader
	cache   map[string]*types.Package
	loading map[string]bool
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.cache[path]; ok {
		return p, nil
	}
	if im.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, err := im.resolveDir(path)
	if err != nil {
		return nil, err
	}
	bp, err := im.loader.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving %q: %w", path, err)
	}
	var files []*ast.File
	for _, fn := range bp.GoFiles {
		f, err := parser.ParseFile(im.loader.Fset, filepath.Join(dir, fn), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	im.loading[path] = true
	defer delete(im.loading, path)
	// An importer needs only the package's declarations: bodies are
	// type-checked when (and only when) the package itself is analysed.
	conf := types.Config{
		Importer:         im,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: true,
	}
	pkg, err := conf.Check(path, im.loader.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking dependency %q: %w", path, err)
	}
	im.cache[path] = pkg
	return pkg, nil
}

func (im *srcImporter) resolveDir(path string) (string, error) {
	l := im.loader
	if path == l.modulePath {
		return l.moduleRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), nil
	}
	goroot := runtime.GOROOT()
	if goroot == "" {
		return "", fmt.Errorf("analysis: GOROOT unknown; cannot resolve %q", path)
	}
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q (not in module %s or GOROOT)", path, l.modulePath)
}

// ExpandPatterns resolves go-style package patterns ("./...", "dir",
// "dir/...") relative to root into a sorted list of directories that
// contain Go files. Walks skip testdata, vendor, hidden, and underscore
// directories, matching the go tool's convention.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		st, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// LoadPatterns expands the given patterns and loads every matched
// directory, deriving import paths from the module root.
func (l *Loader) LoadPatterns(patterns []string, includeTests bool) ([]*Package, error) {
	dirs, err := ExpandPatterns(l.moduleRoot, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		importPath := l.modulePath
		if rel, err := filepath.Rel(l.moduleRoot, dir); err == nil && rel != "." {
			importPath = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		loaded, err := l.LoadDir(dir, importPath, includeTests)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}
