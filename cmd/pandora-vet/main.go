// Command pandora-vet runs Pandora's protocol-invariant analyzer suite
// (tools/analyzers: determinism, lockword, batchescape, atomicmix,
// abortcause) as a go vet tool:
//
//	go build -o bin/pandora-vet ./cmd/pandora-vet
//	go vet -vettool=$(pwd)/bin/pandora-vet ./...
//
// or, as a convenience, with package patterns directly — it then
// re-executes itself under `go vet -vettool`:
//
//	pandora-vet ./...
//
// Either way the go command is the one package loader. The binary
// speaks the vet unit-checker protocol by hand (the container this repo
// builds in has no module proxy, so
// golang.org/x/tools/go/analysis/unitchecker is not available): the go
// command invokes it once per package with a JSON config file naming
// the sources and the export data of every dependency, and once with
// -V=full to fingerprint the tool for its action cache.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"pandora/tools/analyzers"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		// The go command asks which analyzer flags the tool accepts so
		// it can validate pass-through flags; the suite defines none.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(runUnit(args[0]))
	case len(args) >= 1:
		os.Exit(runStandalone(args))
	default:
		fmt.Fprintln(os.Stderr, "usage: pandora-vet <packages>   (or: go vet -vettool=pandora-vet <packages>)")
		os.Exit(2)
	}
}

// printVersion implements `pandora-vet -V=full`: the go command hashes
// this line into its action cache key, so it must change whenever the
// analyzers change. Hashing the binary itself guarantees that.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel buildID=%x\n", filepath.Base(exe), h.Sum(nil)[:16])
}

// runStandalone re-executes the suite through `go vet -vettool=self`,
// so `pandora-vet ./...` behaves exactly like the CI invocation.
func runStandalone(patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// vetConfig is the JSON unit description the go command hands to a
// vettool (the same schema unitchecker consumes).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "pandora-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The suite exports no cross-package facts, but the go command
	// expects the facts file to exist for caching.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}

	tc := &types.Config{
		Importer:  newUnitImporter(fset, &cfg),
		GoVersion: cfg.GoVersion,
		Error:     func(error) {}, // collect via Check's return; keep going
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg, err := tc.Check(analyzers.BasePkgPath(cfg.ImportPath), fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "pandora-vet: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	var diags []analyzers.Diagnostic
	for _, a := range analyzers.All() {
		pass := &analyzers.Pass{
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			PkgPath:   cfg.ImportPath,
			Report:    func(d analyzers.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "pandora-vet: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return 1
		}
	}
	writeVetx()
	if len(diags) == 0 {
		return 0
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Category, d.Message)
	}
	return 2
}

// unitImporter resolves imports from the export-data files the go
// command listed in the config, through the gc importer.
type unitImporter struct {
	cfg  *vetConfig
	base types.ImporterFrom
}

func newUnitImporter(fset *token.FileSet, cfg *vetConfig) *unitImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		if p, ok := cfg.ImportMap[path]; ok {
			path = p
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	base, _ := importer.ForCompiler(fset, cfg.Compiler, lookup).(types.ImporterFrom)
	return &unitImporter{cfg: cfg, base: base}
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	return u.ImportFrom(path, "", 0)
}

func (u *unitImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := u.cfg.ImportMap[path]; ok {
		path = p
	}
	return u.base.ImportFrom(path, dir, 0)
}
