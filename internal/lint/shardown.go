package lint

import (
	"go/ast"
	"go/types"
)

// ShardOwn enforces the shared-nothing property the sharded runner (and
// the planned distributed-shard transport) depend on: a flow's sender
// endpoint lives on the source host's shard, its receiver endpoint on the
// destination host's shard, and neither side's state may be mutated from
// the other's methods. The ownership map is by construction: every
// transport package's Sender type is source-owned and its Receiver type
// destination-owned (the PR 5/8 shard-safety rebuilds made that the
// contract for the whole family).
//
// A method whose receiver is one side writing a field of the other side
// is therefore a cross-shard write — a data race under the parallel
// runner, and an ordering entanglement even when it happens to be safe.
// The legal idioms pass: sending a packet, or deferring a command with
// Cluster.Defer — a command's handler is a named type of its own over the
// endpoint (core.Registration, tcp.Attach, dcqcn.Attach), not a Sender
// method, because it runs on the shard Defer delivers it to; so does a
// function literal. Same-side writes (a sender mutating sender-owned state)
// also pass — they stay inside one scheduling domain.
var ShardOwn = &Analyzer{
	Name: "shardown",
	Doc: "flags field writes that cross the shard-ownership map: a method on a " +
		"source-owned endpoint (core/tcp/dctcp/mptcp/phost/dcqcn Sender) writing fields " +
		"of a destination-owned one (Receiver) or vice versa; route the mutation " +
		"through Cluster.Defer onto the owner's shard instead",
	Run: runShardOwn,
}

// shardOwnedPkgs are the packages whose Sender/Receiver types the
// ownership map covers: the transport endpoint family.
var shardOwnedPkgs = map[string]bool{
	"ndp/internal/core":  true,
	"ndp/internal/tcp":   true,
	"ndp/internal/dctcp": true,
	"ndp/internal/mptcp": true,
	"ndp/internal/phost": true,
	"ndp/internal/dcqcn": true,
}

// ownerDomain returns which side of a flow owns values of type t:
// "source" for Sender endpoints, "destination" for Receiver endpoints,
// "" for everything else.
func ownerDomain(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || !shardOwnedPkgs[obj.Pkg().Path()] {
		return ""
	}
	switch obj.Name() {
	case "Sender":
		return "source"
	case "Receiver":
		return "destination"
	}
	return ""
}

func runShardOwn(p *Pass) error {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			writer := ownerDomain(sig.Recv().Type())
			if writer == "" {
				continue
			}
			checkDomainWrites(p, fd.Body, writer)
		}
	}
	return nil
}

// checkDomainWrites scans one method body (not descending into function
// literals: a closure runs on whatever shard it is delivered to) for field
// writes into the opposite
// ownership domain.
func checkDomainWrites(p *Pass, body ast.Node, writer string) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWrite(p, lhs, writer)
			}
		case *ast.IncDecStmt:
			checkWrite(p, x.X, writer)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkWrite reports lhs when it is a field selector whose base value
// belongs to the opposite ownership domain.
func checkWrite(p *Pass, lhs ast.Expr, writer string) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Only field writes: method selections can't be assigned to.
	if s := p.TypesInfo.Selections[sel]; s == nil || s.Kind() != types.FieldVal {
		return
	}
	written := ownerDomain(p.TypesInfo.TypeOf(sel.X))
	if written == "" || written == writer {
		return
	}
	p.Reportf(lhs.Pos(), "cross-shard write: field %s of a %s-owned endpoint written from a %s-owned method; the two sides of a flow live on different shards — route the mutation through Cluster.Defer (or a packet) onto the owner's shard", sel.Sel.Name, written, writer)
}
