package lint

import (
	"strings"
	"testing"
)

// graphOf builds the call graph over the callgraph fixture package.
func graphOf(t *testing.T) *CallGraph {
	t.Helper()
	pkg := loadFixture(t, "callgraph")
	return buildCallGraph([]*Package{pkg})
}

func nodeNamed(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("call graph has no node %q; have %v", name, nodeNames(g))
	return nil
}

func nodeNames(g *CallGraph) []string {
	out := make([]string, len(g.Nodes))
	for i, n := range g.Nodes {
		out[i] = n.Name
	}
	return out
}

// TestCallGraphIfaceDispatch: a call through an interface resolves,
// CHA-style, to every concrete implementation in the program — in sorted
// (deterministic) order.
func TestCallGraphIfaceDispatch(t *testing.T) {
	g := graphOf(t)
	dispatch := nodeNamed(t, g, "callgraph.Dispatch")
	var targets []string
	for _, e := range dispatch.Edges {
		if e.Kind != EdgeIface {
			t.Errorf("Dispatch edge to %s has kind %d, want EdgeIface", e.Callee.Name, e.Kind)
		}
		targets = append(targets, e.Callee.Name)
	}
	want := "callgraph.A.Handle, callgraph.B.Handle"
	if got := strings.Join(targets, ", "); got != want {
		t.Errorf("Dispatch iface targets = %q, want %q", got, want)
	}
}

// TestCallGraphStaticEdge: a direct call resolves to its declared callee.
func TestCallGraphStaticEdge(t *testing.T) {
	g := graphOf(t)
	chain := nodeNamed(t, g, "callgraph.Chain")
	if len(chain.Edges) != 1 || chain.Edges[0].Kind != EdgeStatic ||
		chain.Edges[0].Callee.Name != "callgraph.Dispatch" {
		t.Errorf("Chain edges = %+v, want one static edge to callgraph.Dispatch", chain.Edges)
	}
}

// TestCallGraphGenericCallee: a call on an instantiated generic type (or of
// an instantiated generic function) resolves to the generic declaration, so
// hot-path reachability does not stop at the first type parameter.
func TestCallGraphGenericCallee(t *testing.T) {
	g := graphOf(t)
	use := nodeNamed(t, g, "callgraph.UseGeneric")
	var targets []string
	for _, e := range use.Edges {
		if e.Kind != EdgeStatic {
			t.Errorf("UseGeneric edge to %s has kind %d, want EdgeStatic", e.Callee.Name, e.Kind)
		}
		targets = append(targets, e.Callee.Name)
	}
	want := "callgraph.Table.Put, callgraph.First"
	if got := strings.Join(targets, ", "); got != want {
		t.Errorf("UseGeneric static targets = %q, want %q", got, want)
	}
}

// TestCallGraphClosure: a capturing literal becomes its own node, linked by
// an EdgeClosure, and its creation is a closure-capture allocation site
// naming the free variables.
func TestCallGraphClosure(t *testing.T) {
	g := graphOf(t)
	mk := nodeNamed(t, g, "callgraph.MakeClosure")
	if len(mk.Edges) != 1 || mk.Edges[0].Kind != EdgeClosure {
		t.Fatalf("MakeClosure edges = %+v, want one EdgeClosure", mk.Edges)
	}
	lit := mk.Edges[0].Callee
	if lit.Name != "callgraph.MakeClosure$1" {
		t.Errorf("literal node named %q, want callgraph.MakeClosure$1", lit.Name)
	}
	if len(lit.Captures) != 1 || lit.Captures[0] != "y" {
		t.Errorf("literal captures %v, want [y]", lit.Captures)
	}
	found := false
	for _, a := range mk.Allocs {
		if a.Kind == AllocClosure && strings.Contains(a.Desc, "y") {
			found = true
		}
	}
	if !found {
		t.Errorf("MakeClosure allocs = %+v, want a closure-capture site naming y", mk.Allocs)
	}
}

// TestCallGraphPanicOnly: allocation sites inside panic arguments are
// summarized as PanicOnly so hotalloc skips them.
func TestCallGraphPanicOnly(t *testing.T) {
	g := graphOf(t)
	pp := nodeNamed(t, g, "callgraph.PanicPath")
	if len(pp.Allocs) == 0 {
		t.Fatal("PanicPath has no summarized allocation sites; expected the Sprintf boxing")
	}
	for _, a := range pp.Allocs {
		if !a.PanicOnly {
			t.Errorf("PanicPath alloc %s of %s not marked PanicOnly", a.Kind, a.Desc)
		}
	}
}

// TestEntryPointRegistry: the hotalloc fixture's OnEvent method is detected
// as a sim.Handler entry point through the interface seam.
func TestEntryPointRegistry(t *testing.T) {
	pkg := loadFixture(t, "hotalloc")
	prog := BuildProgram([]*Package{pkg})
	var got []string
	for _, ep := range prog.Entries {
		got = append(got, ep.Node.Name+" ("+ep.Why+")")
	}
	want := "hotalloc.Port.OnEvent (sim.Handler event handler)"
	if len(got) != 1 || got[0] != want {
		t.Errorf("entry points = %v, want exactly [%s]", got, want)
	}
}
