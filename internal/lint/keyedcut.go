package lint

import (
	"go/ast"
	"go/types"
)

const fabricPkgPath = "ndp/internal/fabric"

// KeyedCut guards the two places where equal-timestamp ordering and
// cross-shard lookahead are decided:
//
//   - Cross-shard mailbox deliveries (fabric.Inbox / fabric.CrossBox as the
//     event handler) must be scheduled with ScheduleKeyed and a canonical
//     DeliveryOrd/CommandOrd, never with plain Schedule* — FIFO tie-breaks
//     depend on who scheduled first, which differs between shard layouts.
//
//   - Cluster.Defer's delay must be derived from the topology
//     (MinPathDelay, LinkDelay), never a compile-time constant: a literal
//     below the shard pair's lookahead window silently delivers commands
//     into a window the conservative runner has already committed.
var KeyedCut = &Analyzer{
	Name: "keyedcut",
	Doc: "flags plain Schedule/ScheduleAfter/ScheduleCancelable calls that deliver to a " +
		"cross-shard mailbox (use ScheduleKeyed with DeliveryOrd/CommandOrd), and Defer " +
		"calls whose delay is a compile-time constant instead of deriving from " +
		"MinPathDelay/LinkDelay",
	Run: runKeyedCut,
}

func runKeyedCut(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.TypesInfo, call)
			if fn == nil {
				return true
			}
			switch fn.Name() {
			case "Defer":
				checkDefer(p, call, fn)
			case "Schedule", "ScheduleAfter", "ScheduleCancelable":
				checkPlainSchedule(p, call, fn)
			}
			return true
		})
	}
	return nil
}

// checkDefer matches the Cluster command channel's Defer(from, to int, at
// sim.Time, h sim.Handler, arg uint64) shape and requires the delivery time
// to be computed, not constant.
func checkDefer(p *Pass, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 5 || len(call.Args) != 5 {
		return
	}
	if !namedIn(sig.Params().At(2).Type(), simPkgPath, "Time") || !namedIn(sig.Params().At(3).Type(), simPkgPath, "Handler") {
		return
	}
	if tv, ok := p.TypesInfo.Types[call.Args[2]]; ok && tv.Value != nil {
		p.Reportf(call.Args[2].Pos(), "Defer delay is the compile-time constant %s: a literal can undercut the shard pair's lookahead window; derive it from Now() + MinPathDelay/LinkDelay", tv.Value)
	}
}

// checkPlainSchedule flags un-keyed scheduling of cross-shard mailbox
// handlers on the EventList.
func checkPlainSchedule(p *Pass, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !namedIn(sig.Recv().Type(), simPkgPath, "EventList") {
		return
	}
	// Schedule(t, h, arg) / ScheduleAfter(d, h, arg) / ScheduleCancelable(t,
	// h, arg): the handler is the second argument.
	if len(call.Args) < 2 {
		return
	}
	h := call.Args[1]
	t := p.TypesInfo.TypeOf(h)
	if t == nil {
		return
	}
	if namedIn(t, fabricPkgPath, "Inbox") || namedIn(t, fabricPkgPath, "CrossBox") {
		p.Reportf(h.Pos(), "cross-shard mailbox scheduled with plain %s: equal-timestamp FIFO order depends on who scheduled first, which differs between shard layouts; use ScheduleKeyed with DeliveryOrd/CommandOrd", fn.Name())
	}
}
