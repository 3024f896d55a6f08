package core

import "sort"

// What effects_test.go (package core_test, so that it can pin the shipped
// guests' classes) needs from inside the package.

// HostImport is one host function as the table registers it.
type HostImport struct {
	Name    string
	NArgs   int
	HasRet  bool
	Effects Effects
}

// HostImports lists the whole host table, sorted by name.
func HostImports() []HostImport {
	var out []HostImport
	for name, fx := range hostEffects {
		f, _ := hostTable.Lookup(name)
		out = append(out, HostImport{Name: name, NArgs: f.NArgs, HasRet: f.HasRet, Effects: fx})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
