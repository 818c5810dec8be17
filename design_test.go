package bypassyield

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// TestDesignNamesExist holds DESIGN.md to the code it describes: every
// back-quoted Go file path and Go name in it must be in the tree, parsed
// with go/parser. A name is `pkg.Name`, `Type.Member` (a method, a field
// or an interface method), or either with one member more
// (`pkg.Type.Member`, `Type.Field.Member`), with an optional call or
// composite after it; a path is a `.go` file, with or without its
// directories and a line suffix. A bare CamelCase name (`MsgScrape`,
// `Release()`) must be declared by some package or be a member of some
// type.
//
// What is checked of a dotted name, by its first part:
//   - a package of the tree: the declaration must be in it, unless both
//     parts are lowercase, which is also how a metric reads
//     (`core.yield_bytes`), so only a declaration that exists is a match;
//   - a type of the tree: the member must be one of its own, and a third
//     part a member of the second's type when that is the tree's;
//   - a standard-library package: nothing, the tree cannot lose it;
//   - anything else: a failure if the name reads as Go (an uppercase
//     first part, or an uppercase letter in the second), since a variable
//     or a deleted type cannot be looked up; otherwise it is not a Go
//     name (`photo.sdss.org`).
func TestDesignNamesExist(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	tree := parseTree(t, ".")
	std := stdPackages()

	text := regexp.MustCompile("(?s)```.*?```").ReplaceAllString(string(doc), "")
	goPath := regexp.MustCompile(`^[\w./-]+\.go(:[\d,–-]+)?$`)
	bareName := regexp.MustCompile(`^([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\(\))?$`)
	goName := regexp.MustCompile(`^[*&]?([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\)|\{.*\})?$`)
	checked := 0
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(text, -1) {
		tok := m[1]
		if goPath.MatchString(tok) {
			checked++
			if p := strings.SplitN(tok, ":", 2)[0]; !tree.hasFile(p) {
				t.Errorf("DESIGN.md cites `%s`: no such file in the tree", tok)
			}
			continue
		}
		if b := bareName.FindStringSubmatch(tok); b != nil {
			checked++
			if !tree.declares(b[1]) {
				t.Errorf("DESIGN.md cites `%s`: nothing in the tree declares it", tok)
			}
			continue
		}
		n := goName.FindStringSubmatch(tok)
		if n == nil {
			continue
		}
		a, b, c := n[1], n[2], n[3]
		var missing string
		switch {
		case tree.pkgs[a] != nil:
			switch {
			case !tree.pkgs[a][b] && c == "" && isLower(b):
				continue // a metric, or an unexported name that is gone
			case !tree.pkgs[a][b]:
				missing = "package " + a + " declares no " + b
			case c != "" && !tree.hasMember(b, c):
				missing = "type " + b + " has no member " + c
			}
		case tree.types[a] != nil:
			switch {
			case !tree.hasMember(a, b):
				missing = "type " + a + " has no member " + b
			case c != "" && tree.types[tree.memberType(a, b)] != nil && !tree.hasMember(tree.memberType(a, b), c):
				missing = a + "." + b + " has no member " + c
			}
		case std[a]:
			continue
		case !isLower(a) || !isLower(b):
			missing = a + " is neither a package nor a type of the tree"
		default:
			continue
		}
		checked++
		if missing != "" {
			t.Errorf("DESIGN.md cites `%s`: %s", tok, missing)
		}
	}
	if checked < 100 {
		t.Fatalf("checked %d names and paths in DESIGN.md: the scan has stopped finding them", checked)
	}
}

// isLower reports whether s has no uppercase letter.
func isLower(s string) bool { return !strings.ContainsFunc(s, unicode.IsUpper) }

// goTree is what the tree declares, by name.
type goTree struct {
	files map[string]bool            // every .go file, slash-separated, relative to the root
	pkgs  map[string]map[string]bool // package name → its top-level declarations
	types map[string]map[string]string
	// types: type name → member (method, field, interface method) → the
	// base type name of a field ("" for a method or an unnamed type)
}

func (g *goTree) hasFile(p string) bool {
	for f := range g.files {
		if f == p || strings.HasSuffix(f, "/"+p) {
			return true
		}
	}
	return false
}

// declares reports whether any package declares name or any type has
// a member of that name.
func (g *goTree) declares(name string) bool {
	for _, decls := range g.pkgs {
		if decls[name] {
			return true
		}
	}
	for _, members := range g.types {
		if _, ok := members[name]; ok {
			return true
		}
	}
	return false
}

func (g *goTree) hasMember(typ, member string) bool {
	_, ok := g.types[typ][member]
	return ok
}

func (g *goTree) memberType(typ, member string) string { return g.types[typ][member] }

// parseTree parses every .go file under root, test files and the bench
// module included.
func parseTree(t *testing.T, root string) *goTree {
	t.Helper()
	g := &goTree{files: map[string]bool{}, pkgs: map[string]map[string]bool{}, types: map[string]map[string]string{}}
	member := func(typ, name, of string) {
		if g.types[typ] == nil {
			g.types[typ] = map[string]string{}
		}
		g.types[typ][name] = of
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		g.files[filepath.ToSlash(path)] = true
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decls := g.pkgs[f.Name.Name]
		if decls == nil {
			decls = map[string]bool{}
			g.pkgs[f.Name.Name] = decls
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[d.Name.Name] = true
				} else {
					member(baseType(d.Recv.List[0].Type), d.Name.Name, "")
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls[n.Name] = true
						}
					case *ast.TypeSpec:
						decls[s.Name.Name] = true
						if g.types[s.Name.Name] == nil {
							g.types[s.Name.Name] = map[string]string{}
						}
						var fields *ast.FieldList
						switch st := s.Type.(type) {
						case *ast.StructType:
							fields = st.Fields
						case *ast.InterfaceType:
							fields = st.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							if len(fl.Names) == 0 { // embedded: named by its type
								member(s.Name.Name, baseType(fl.Type), baseType(fl.Type))
							}
							for _, n := range fl.Names {
								member(s.Name.Name, n.Name, baseType(fl.Type))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// baseType is the name of the type an expression denotes, stripped of
// pointers, packages and type arguments; "" when it has none.
func baseType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return baseType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return baseType(e.X)
	case *ast.IndexListExpr:
		return baseType(e.X)
	}
	return ""
}

// stdPackages is the set of standard-library package names (the last
// element of each import path), read from GOROOT's source tree.
func stdPackages() map[string]bool {
	src := filepath.Join(build.Default.GOROOT, "src")
	std := map[string]bool{}
	filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		switch d.Name() {
		case "testdata", "vendor", "cmd":
			return filepath.SkipDir
		}
		if path != src {
			std[d.Name()] = true
		}
		return nil
	})
	return std
}
