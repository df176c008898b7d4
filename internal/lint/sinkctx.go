package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Sinkctx enforces cancellation hygiene in the streaming pipeline: a
// ctx handed to Run/CrawlStreamSharded must actually govern the work.
// The pipeline's contract (CrawlStreamSharded returns ctx.Err()
// promptly, sinks never wedge a cancelled run) holds only if every
// function on the path propagates and consults its context.
//
// Three rules:
//
//   - a named context.Context parameter must be used somewhere in the
//     function body (pass it on, derive from it, or check
//     Done()/Err()); name it _ if the signature demands a ctx the
//     implementation genuinely cannot honor;
//   - context.Background()/TODO() must not be called where a ctx
//     parameter is in scope: minting a fresh root detaches the callee
//     from the caller's cancellation;
//   - a loop that receives from a channel (range over a channel, or a
//     condition-less for containing receive/select) inside a
//     ctx-bearing function must consult a context in its body,
//     otherwise cancellation cannot interrupt the drain.
var Sinkctx = &Analyzer{
	Name: "sinkctx",
	Doc: "streaming loops and Sink plumbing must propagate and check " +
		"ctx: no ignored ctx parameters, no context.Background() where " +
		"a ctx is in scope, no channel-drain loops that never consult ctx",
	Run: runSinkctx,
}

func runSinkctx(pass *Pass) error {
	for _, file := range pass.Files {
		// Walk function declarations and literals, tracking whether a
		// ctx parameter is in scope for the Background/TODO rule.
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFuncCtx(pass, fd.Type, fd.Body, nil)
			return true
		})
	}
	return nil
}

// ctxParams returns the named context.Context parameter objects of a
// function type.
func ctxParams(pass *Pass, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkFuncCtx applies all three rules to one function (declaration or
// literal). enclosing carries ctx parameters of enclosing functions, so
// nested literals inherit "a ctx is in scope".
func checkFuncCtx(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt, enclosing []types.Object) {
	own := ctxParams(pass, ft)

	// Rule 1: every named ctx parameter is used.
	for _, obj := range own {
		if !objUsedIn(pass.Info, body, obj) {
			pass.Reportf(obj.Pos(),
				"context parameter %s is never used: propagate it or check Done()/Err() (rename to _ only if the signature forces an unhonorable ctx)",
				obj.Name())
		}
	}

	inScope := append(append([]types.Object{}, enclosing...), own...)

	// Walk this function's own statements; recurse explicitly into
	// nested literals so they see the extended scope.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncCtx(pass, n.Type, n.Body, inScope)
			return false
		case *ast.CallExpr:
			checkFreshRoot(pass, n, inScope)
		case *ast.RangeStmt:
			if isChanType(typeOf(pass.Info, n.X)) {
				checkDrainLoop(pass, n.Body, n.Pos(), inScope)
			}
		case *ast.ForStmt:
			if n.Cond == nil && containsChannelOp(pass, n.Body) {
				checkDrainLoop(pass, n.Body, n.Pos(), inScope)
			}
		}
		return true
	})
}

// checkFreshRoot flags context.Background()/TODO() calls made while a
// ctx parameter is in scope.
func checkFreshRoot(pass *Pass, call *ast.CallExpr, inScope []types.Object) {
	if len(inScope) == 0 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || pkgFuncUse(pass.Info, sel.Sel) != "context" {
		return
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		pass.Reportf(call.Pos(),
			"context.%s() called with ctx in scope: the new root ignores the caller's cancellation; propagate the ctx parameter",
			sel.Sel.Name)
	}
}

// checkDrainLoop requires a channel-receiving loop in a ctx-bearing
// function to consult some context in its body — the in-scope parameter
// or a context derived locally (ctx.Err(), ctx.Done() in a select, a
// call taking the ctx, ...).
func checkDrainLoop(pass *Pass, body *ast.BlockStmt, loopPos token.Pos, inScope []types.Object) {
	if len(inScope) == 0 {
		return
	}
	if mentionsContext(pass, body) {
		return
	}
	pass.Reportf(loopPos,
		"channel-drain loop never consults ctx: cancellation cannot interrupt it; check ctx.Err() or select on ctx.Done()")
}

// mentionsContext reports whether any identifier of context.Context
// type appears inside node.
func mentionsContext(pass *Pass, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, ok := pass.Info.Uses[id]; ok && isContextType(obj.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}

// containsChannelOp reports whether body performs any channel operation
// (send, receive, select, or range over a channel) outside nested
// function literals.
func containsChannelOp(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if isChanType(typeOf(pass.Info, n.X)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
