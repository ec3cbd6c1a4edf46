package rangecheck

import (
	"fmt"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint/dataflow"
	"repro/internal/lint/loader"
)

// TestBuiltinKeysResolve resolves every API name the built-in tables
// key on against the module's own packages. A renamed API leaves its
// contract unenforced without a word; the fixtures catch that only for
// the APIs they call.
func TestBuiltinKeysResolve(t *testing.T) {
	imp, err := loader.NewImporter(token.NewFileSet(), ".")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range builtinArgs {
		keys = append(keys, k)
	}
	for k := range builtinResults {
		keys = append(keys, k)
	}
	for k := range sites {
		keys = append(keys, k)
	}
	for k := range offsetResults {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range slices.Compact(keys) {
		if err := resolveKey(imp, key); err != nil {
			t.Errorf("%s: %v", key, err)
		}
	}
}

// resolveKey finds the function or method a "pkgpath.Name" or
// "pkgpath.Type.Method" key names, an interface's method included, and
// checks that dataflow.FuncKey renders it back to the key.
func resolveKey(imp types.Importer, key string) error {
	slash := strings.LastIndex(key, "/")
	dot := slash + 1 + strings.Index(key[slash+1:], ".")
	pkg, err := imp.Import(key[:dot])
	if err != nil {
		return err
	}
	names := strings.Split(key[dot+1:], ".")
	obj := pkg.Scope().Lookup(names[0])
	if len(names) == 2 {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return fmt.Errorf("no type %s in %s", names[0], pkg.Path())
		}
		obj, _, _ = types.LookupFieldOrMethod(tn.Type(), true, pkg, names[1])
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return fmt.Errorf("names no function or method in %s", pkg.Path())
	}
	if got := dataflow.FuncKey(fn); got != key {
		return fmt.Errorf("resolves to %s", got)
	}
	return nil
}
