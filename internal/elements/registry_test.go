package elements

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"routebricks/internal/click"
)

// resourceBound lists the element classes that legitimately have no
// text factory: they bind runtime resources (device rings, route
// tables, crypto tunnels, capture writers) that only a host program can
// supply, so configurations receive them as prebound instances.
var resourceBound = map[string]string{
	"PollDevice": "binds an exec.Ring receive queue",
	"ToDevice":   "binds an exec.Ring transmit queue",
	"RED":        "monitors an exec.Ring's occupancy",
	"LPMLookup":  "binds a built route table",
	"ESPEncap":   "binds an ipsec.Tunnel",
	"ESPDecap":   "binds an ipsec.Tunnel",
	"Tap":        "binds a pcap.Writer",
}

// elementTypes enumerates, from the package source, every exported
// struct type with a Push(ctx, port, packet) method — i.e. every
// element the library ships. Reflecting over the source (rather than a
// hand-maintained list) is what keeps the completeness check honest: a
// new element file added later is seen automatically.
func elementTypes(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	hasPush := map[string]bool{}
	isStruct := map[string]bool{}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						if _, ok := ts.Type.(*ast.StructType); ok {
							isStruct[ts.Name.Name] = true
						}
					}
				case *ast.FuncDecl:
					if d.Name.Name != "Push" || d.Recv == nil || len(d.Recv.List) == 0 {
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if ident, ok := recv.(*ast.Ident); ok {
						hasPush[ident.Name] = true
					}
				}
			}
		}
	}
	var out []string
	for name := range hasPush {
		if isStruct[name] && ast.IsExported(name) {
			out = append(out, name)
		}
	}
	return out
}

// sampleArgs gives each registered class a constructible argument list
// so the test can actually invoke every factory.
var sampleArgs = map[string][]string{
	"Tee":          {"2"},
	"HopSwitch":    {"4"},
	"Paint":        {"3"},
	"PaintSwitch":  {"2"},
	"SetEtherDst":  {"1"},
	"IPClassifier": {"proto udp"},
	"Fragmenter":   {"576"},
	"Classifier":   {"0x0800"},
	"Shaper":       {"1e9", "1500"},
	"ICMPError":    {"10.0.0.1", "11", "0"},
	"ARPResponder": {"1", "10.0.0.1"},
	"ARPQuerier":   {"1", "10.0.0.1"},
}

// TestRegistryCompleteness is the two-way gate: every element type in
// the package is either registered or explicitly resource-bound, and
// every registered factory builds a working element.
func TestRegistryCompleteness(t *testing.T) {
	reg := StandardRegistry()
	for _, name := range elementTypes(t) {
		_, registered := reg[name]
		_, excused := resourceBound[name]
		switch {
		case registered && excused:
			t.Errorf("%s is both registered and listed resource-bound; drop one", name)
		case !registered && !excused:
			t.Errorf("element %s has no factory in StandardRegistry and no resourceBound entry — register it or document why it can't be built from text", name)
		}
	}
	for class := range resourceBound {
		found := false
		for _, name := range elementTypes(t) {
			if name == class {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("resourceBound lists %s, which is no longer an element type", class)
		}
	}
	for class, factory := range reg {
		el, err := factory(sampleArgs[class])
		if err != nil {
			t.Errorf("%s factory failed on sample args %v: %v", class, sampleArgs[class], err)
			continue
		}
		if el == nil {
			t.Errorf("%s factory returned nil element", class)
		}
		var _ click.Element = el
	}
}

// TestRegistryFactoriesValidate spot-checks argument validation on the
// newly registered classes.
func TestRegistryFactoriesValidate(t *testing.T) {
	reg := StandardRegistry()
	bad := map[string][][]string{
		"Shaper":       {{}, {"0", "1500"}, {"1e9", "x"}},
		"ICMPError":    {{}, {"not-an-ip", "11", "0"}, {"10.0.0.1", "999", "0"}},
		"ARPResponder": {{}, {"1"}, {"x", "10.0.0.1"}, {"1", "nope"}},
		"ARPQuerier":   {{"1"}, {"1", "nope"}},
		"Sink":         {{"unexpected"}},
	}
	for class, argLists := range bad {
		for _, args := range argLists {
			if _, err := reg[class](args); err == nil {
				t.Errorf("%s accepted bad args %v", class, args)
			}
		}
	}
}

// TestBatchElementsPushOne guards against a second copy of an element's
// logic: for every type in the package with a PushBatch method, the body
// of Push must be the single statement click.PushOne(recv, ...), so the
// batch path is the only implementation.
func TestBatchElementsPushOne(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := map[string]bool{}
	push := map[string]*ast.FuncDecl{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Recv == nil || len(d.Recv.List) == 0 {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				ident, ok := recv.(*ast.Ident)
				if !ok {
					continue
				}
				switch d.Name.Name {
				case "PushBatch":
					batch[ident.Name] = true
				case "Push":
					push[ident.Name] = d
				}
			}
		}
	}
	if len(batch) == 0 {
		t.Fatal("found no PushBatch methods")
	}
	for name := range batch {
		d := push[name]
		if d == nil {
			t.Errorf("%s has PushBatch but no Push", name)
			continue
		}
		if !isPushOne(d) {
			t.Errorf("%s.Push at %s is not the single call click.PushOne(%s, ...)",
				name, fset.Position(d.Pos()), recvName(d))
		}
	}
}

// recvName is the receiver's variable name, or "" when it is unnamed.
func recvName(d *ast.FuncDecl) string {
	if names := d.Recv.List[0].Names; len(names) == 1 {
		return names[0].Name
	}
	return ""
}

// isPushOne reports whether d's body is exactly click.PushOne(recv, ...).
func isPushOne(d *ast.FuncDecl) bool {
	if d.Body == nil || len(d.Body.List) != 1 {
		return false
	}
	stmt, ok := d.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 4 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "PushOne" {
		return false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "click" {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && arg.Name == recvName(d) && arg.Name != ""
}
