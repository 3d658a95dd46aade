package lintkit

// The lifecycle analyzer enforces goroutine and resource discipline in
// the long-running packages — the observability layer, the CLI
// lifecycle, the worker pool, the streaming decoder, and the future
// atomd daemon. A daemon that leaks a goroutine, a ticker, or an
// undrained channel fails slowly and unreproducibly; these checks make
// the teardown story mechanical:
//
//   - every `go` statement must have a provable join/cancel path: the
//     spawned closure (or same-package callee body) signals completion
//     (WaitGroup.Done, close(ch)) or watches a cancel signal (a channel
//     receive); launching an opaque external callee is a finding
//   - time.Ticker/time.Timer must be Stopped — locals in-function,
//     fields by some method of the owning type; time.Tick and
//     time.After-in-a-loop leak by construction
//   - sync.WaitGroup: Add inside the spawned goroutine races the Wait;
//     a local WaitGroup with Add but no Wait never joins
//   - a channel that is made, sent to, and neither received from,
//     closed, nor handed off is a parked-sender leak
//   - a closable value (Close/Stop/Shutdown in its method set) stored
//     into a struct field must be torn down by some method of that
//     type, so every constructor's teardown path reaches it

import (
	"go/ast"
	"go/types"
	"strings"
)

// lifecyclePkgs scopes the sweep to the packages that own goroutines,
// timers, or OS resources today, plus the daemon package names atomd
// will use (and the fixture package lifefix).
var lifecyclePkgs = []string{"obs", "cli", "parallel", "bgpstream", "replay", "atomd", "daemon", "lifefix"}

// teardownNames are the method names recognized as teardown on both
// sides: a field whose type offers one is closable, and a method of the
// owning type calling one on the field wires it up.
var teardownNames = []string{"Close", "Stop", "Shutdown", "Finish"}

var Lifecycle = &Analyzer{
	Name: "lifecycle",
	Doc:  "flag goroutines without join/cancel paths, unStopped tickers, undrained channels, and closable fields with no teardown",
	Run:  runLifecycle,
}

func runLifecycle(pass *Pass) {
	if !hasSuffixPath(pass.Pkg.Path, lifecyclePkgs, "internal") {
		return
	}
	lc := &lifecycleCtx{pass: pass, funcBodies: map[*types.Func]*ast.FuncDecl{}}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				lc.decls = append(lc.decls, fd)
				if fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					lc.funcBodies[fn] = fd
				}
			}
		}
	}
	lc.collectFieldTeardowns()
	for _, fd := range lc.decls {
		lc.checkFunc(fd)
	}
	lc.checkFieldTeardowns()
}

type lifecycleCtx struct {
	pass       *Pass
	decls      []*ast.FuncDecl // source order, for deterministic sweeps
	funcBodies map[*types.Func]*ast.FuncDecl

	// field-teardown bookkeeping, package-wide: stores[T][field] is the
	// position of a closable value stored into T.field; teardowns[T][field]
	// records that some method of T calls a teardown on the field.
	stores    map[string]map[string]ast.Node
	teardowns map[string]map[string]bool
	tickers   map[string]map[string]ast.Node // fields holding *time.Ticker / *time.Timer
}

// --- per-function checks ---

func (lc *lifecycleCtx) checkFunc(fd *ast.FuncDecl) {
	info := lc.pass.Pkg.Info
	hasAdd := containsWaitGroupCall(info, fd.Body, "Add")

	walkParents(fd.Body, func(n ast.Node, parents []ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			lc.checkGo(st, parents, hasAdd)
		case *ast.CallExpr:
			lc.checkTimeCall(st, parents)
		case *ast.AssignStmt:
			lc.checkLocalResources(fd, st)
		}
		return true
	})
	lc.checkLocalWaitGroups(fd)
}

// checkGo demands a join/cancel path for every spawned goroutine.
func (lc *lifecycleCtx) checkGo(st *ast.GoStmt, parents []ast.Node, fnHasAdd bool) {
	info := lc.pass.Pkg.Info
	if inLoop(parents) && !fnHasAdd {
		lc.pass.Reportf(st.Pos(), "goroutine launched in a loop with no WaitGroup.Add in the function: unbounded fan-out with no join")
	}
	switch fun := unparen(st.Call.Fun).(type) {
	case *ast.FuncLit:
		if !joinsOrCancels(info, fun.Body) {
			lc.pass.Reportf(st.Pos(), "goroutine closure has no join or cancel path (no WaitGroup.Done, close, or channel receive): it can outlive its owner")
		}
		// Add inside the spawned goroutine races the owner's Wait.
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // nested spawn judged at its own go statement
			}
			if call, ok := n.(*ast.CallExpr); ok && isWaitGroupCall(info, call, "Add") {
				lc.pass.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races Wait: Add before the go statement")
			}
			return true
		})
	default:
		fn := calleeFunc(info, st.Call)
		if fn != nil {
			if body, ok := lc.funcBodies[fn]; ok {
				if !joinsOrCancels(info, body.Body) {
					lc.pass.Reportf(st.Pos(), "goroutine runs %s, which has no join or cancel path (no WaitGroup.Done, close, or channel receive)", fn.Name())
				}
				return
			}
		}
		lc.pass.Reportf(st.Pos(), "goroutine runs an opaque callee: wrap it in a closure that signals completion (close a done channel or WaitGroup.Done) so teardown can join it")
	}
}

// joinsOrCancels reports whether a body signals completion or watches a
// cancel signal: WaitGroup.Done, close(ch), any channel receive
// (<-done, <-ctx.Done(), select cases), or ranging over a channel.
func joinsOrCancels(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupCall(info, v, "Done") || isBuiltinCall(info, v, "close") {
				found = true
			}
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// checkTimeCall flags the time APIs that leak by construction.
func (lc *lifecycleCtx) checkTimeCall(call *ast.CallExpr, parents []ast.Node) {
	info := lc.pass.Pkg.Info
	if pkgFunc(info, call, "time", "Tick") {
		lc.pass.Reportf(call.Pos(), "time.Tick leaks its ticker: use time.NewTicker and Stop it on teardown")
		return
	}
	if pkgFunc(info, call, "time", "After") && inLoop(parents) {
		lc.pass.Reportf(call.Pos(), "time.After in a loop allocates a timer per iteration that only the GC reclaims: hoist a time.NewTimer (or Ticker) and Stop it")
	}
}

// checkLocalResources handles x := time.NewTicker(...) / NewTimer and
// constructor-style closables bound to locals: each must be Stopped /
// Closed in-function or escape to an owner that can. Stores into struct
// fields are recorded for the package-wide teardown check instead.
func (lc *lifecycleCtx) checkLocalResources(fd *ast.FuncDecl, st *ast.AssignStmt) {
	info := lc.pass.Pkg.Info
	for i, lhs := range st.Lhs {
		// Field targets: any closable RHS value counts as a store the
		// owning type must eventually tear down.
		if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
			lc.recordFieldStore(sel, assignedType(info, st, i))
			continue
		}
		rhs := rhsExprAt(st, i)
		if rhs == nil {
			continue
		}
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		obj := localVarObj(info, lhs)
		if obj == nil {
			continue
		}
		switch {
		case pkgFunc(info, call, "time", "NewTicker"):
			if !stoppedOrEscapes(info, fd.Body, obj) {
				lc.pass.Reportf(st.Pos(), "time.Ticker %s is never Stopped: its goroutine and channel leak; defer %s.Stop()", obj.Name(), obj.Name())
			}
		case pkgFunc(info, call, "time", "NewTimer"):
			if !stoppedOrEscapes(info, fd.Body, obj) {
				lc.pass.Reportf(st.Pos(), "time.Timer %s is never Stopped: Stop it on every teardown path", obj.Name())
			}
		case isConstructorCall(info, call) && hasTeardown(obj.Type()):
			if !stoppedOrEscapes(info, fd.Body, obj) {
				lc.pass.Reportf(st.Pos(), "%s holds a closable %s that is never closed and never handed off: wire it to a teardown path", obj.Name(), obj.Type().String())
			}
		}
	}
}

// rhsExprAt returns the RHS expression feeding Lhs[i]: pairwise for
// n:=n assignments, Rhs[0] for the x, err := f() tuple form.
func rhsExprAt(st *ast.AssignStmt, i int) ast.Expr {
	if len(st.Rhs) == len(st.Lhs) {
		return st.Rhs[i]
	}
	if len(st.Rhs) == 1 {
		return st.Rhs[0]
	}
	return nil
}

// assignedType resolves the type flowing into Lhs[i], unpacking the
// tuple of a multi-value call on the RHS.
func assignedType(info *types.Info, st *ast.AssignStmt, i int) types.Type {
	rhs := rhsExprAt(st, i)
	if rhs == nil {
		return nil
	}
	t := info.TypeOf(rhs)
	if tup, ok := t.(*types.Tuple); ok {
		if i < tup.Len() {
			return tup.At(i).Type()
		}
		return nil
	}
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		return nil
	}
	return t
}

// isConstructorCall recognizes the constructor naming idiom: New*,
// Open*, Listen*, Dial*, Create*, Start* — the calls whose results the
// caller owns and must eventually tear down.
func isConstructorCall(info *types.Info, call *ast.CallExpr) bool {
	name := calleeName(call.Fun)
	for _, p := range []string{"New", "Open", "Listen", "Dial", "Create", "Start"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// stoppedOrEscapes reports whether the local resource obj has a
// teardown call in this function (including defers and closures), or
// escapes to an owner — returned, passed to a call, or stored anywhere.
func stoppedOrEscapes(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	ok := false
	walkParents(body, func(n ast.Node, parents []ast.Node) bool {
		if ok {
			return false
		}
		id, isIdent := n.(*ast.Ident)
		if !isIdent || info.Uses[id] != obj || len(parents) == 0 {
			return true
		}
		switch p := parents[len(parents)-1].(type) {
		case *ast.SelectorExpr:
			for _, name := range teardownNames {
				if p.Sel.Name == name {
					ok = true // x.Stop / x.Close reference (called or deferred)
				}
			}
		case *ast.CallExpr:
			for _, a := range p.Args {
				if a == ast.Expr(id) {
					ok = true // handed off
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			ok = true // escapes to an owner
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if r == ast.Expr(id) {
					ok = true // reassigned away: the new binding owns it
				}
			}
		case *ast.UnaryExpr:
			if p.Op.String() == "&" {
				ok = true
			}
		}
		return true
	})
	return ok
}

// checkLocalWaitGroups flags a function-local WaitGroup with Add but no
// Wait — goroutines counted in, never joined. A WaitGroup whose address
// escapes is someone else's to Wait on.
func (lc *lifecycleCtx) checkLocalWaitGroups(fd *ast.FuncDecl) {
	info := lc.pass.Pkg.Info
	type wgState struct {
		addPos  ast.Node
		waited  bool
		escapes bool
	}
	wgs := map[types.Object]*wgState{}
	state := func(obj types.Object) *wgState {
		if !isWaitGroupType(obj.Type()) || !declaredWithin(obj, fd) {
			return nil
		}
		s := wgs[obj]
		if s == nil {
			s = &wgState{}
			wgs[obj] = s
		}
		return s
	}
	walkParents(fd.Body, func(n ast.Node, parents []ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := unparen(v.Fun).(*ast.SelectorExpr); ok {
				if obj := localVarObj(info, sel.X); obj != nil {
					if s := state(obj); s != nil {
						switch sel.Sel.Name {
						case "Add":
							if s.addPos == nil {
								s.addPos = v
							}
						case "Wait":
							s.waited = true
						}
					}
				}
			}
			// &wg passed along: ownership leaves the function.
			for _, a := range v.Args {
				if u, ok := unparen(a).(*ast.UnaryExpr); ok && u.Op.String() == "&" {
					if obj := localVarObj(info, u.X); obj != nil {
						if s := state(obj); s != nil {
							s.escapes = true
						}
					}
				}
			}
		}
		return true
	})
	for obj, s := range wgs {
		if s.addPos != nil && !s.waited && !s.escapes {
			lc.pass.Reportf(s.addPos.Pos(), "WaitGroup %s has Add but no Wait in this function: the counted goroutines are never joined", obj.Name())
		}
	}
	lc.checkLocalChannels(fd)
}

// checkLocalChannels flags the parked-sender leak: a channel made
// locally, sent to (often from a goroutine), and never received from,
// closed, or handed off — every sender blocks forever.
func (lc *lifecycleCtx) checkLocalChannels(fd *ast.FuncDecl) {
	info := lc.pass.Pkg.Info
	type chState struct {
		makePos ast.Node
		sent    bool
		drained bool // received, closed, or escaped
	}
	chans := map[types.Object]*chState{}

	// Pass 1: find ch := make(chan ...) locals.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range st.Lhs {
			if i >= len(st.Rhs) {
				break
			}
			call, ok := unparen(st.Rhs[i]).(*ast.CallExpr)
			if !ok || !isBuiltinCall(info, call, "make") || len(call.Args) == 0 {
				continue
			}
			if t := info.TypeOf(call); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					if obj := localVarObj(info, lhs); obj != nil {
						chans[obj] = &chState{makePos: st}
					}
				}
			}
		}
		return true
	})
	if len(chans) == 0 {
		return
	}
	// Pass 2: classify every use.
	walkParents(fd.Body, func(n ast.Node, parents []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || len(parents) == 0 {
			return true
		}
		obj := info.Uses[id]
		s := chans[obj]
		if s == nil {
			return true
		}
		switch p := parents[len(parents)-1].(type) {
		case *ast.SendStmt:
			if p.Chan == ast.Expr(id) {
				s.sent = true
			} else {
				s.drained = true // the channel itself sent elsewhere: handed off
			}
		case *ast.UnaryExpr:
			if p.Op.String() == "<-" || p.Op.String() == "&" {
				s.drained = true
			}
		case *ast.RangeStmt:
			if p.X == ast.Expr(id) {
				s.drained = true
			}
		case *ast.CallExpr:
			if isBuiltinCall(info, p, "close") {
				s.drained = true
			}
			for _, a := range p.Args {
				if a == ast.Expr(id) && !isBuiltinCall(info, p, "len") && !isBuiltinCall(info, p, "cap") {
					s.drained = true // handed off (incl. close)
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr:
			s.drained = true
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if r == ast.Expr(id) {
					s.drained = true
				}
			}
			for _, l := range p.Lhs {
				if l == ast.Expr(id) && localVarObj(info, l) == nil {
					s.drained = true // stored into a field: owner's job
				}
			}
		}
		return true
	})
	for obj, s := range chans {
		if s.sent && !s.drained {
			lc.pass.Reportf(s.makePos.Pos(), "channel %s is sent to but never received from, closed, or handed off: senders park forever", obj.Name())
		}
	}
}

// --- package-wide field teardown ---

// collectFieldTeardowns scans every method in the package for teardown
// calls on receiver fields (recv.field.Close() and friends) and every
// function for closable values stored into struct fields.
func (lc *lifecycleCtx) collectFieldTeardowns() {
	lc.stores = map[string]map[string]ast.Node{}
	lc.teardowns = map[string]map[string]bool{}
	lc.tickers = map[string]map[string]ast.Node{}
	info := lc.pass.Pkg.Info
	for _, fd := range lc.decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				// recv.field.Close() — a teardown wired to the type.
				sel, ok := unparen(v.Fun).(*ast.SelectorExpr)
				if !ok || !isTeardownName(sel.Sel.Name) {
					return true
				}
				inner, ok := unparen(sel.X).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if tn := namedTypeOf(info, inner.X); tn != "" {
					mark(lc.teardowns, tn, inner.Sel.Name)
				}
			case *ast.CompositeLit:
				// T{field: closable} in a constructor counts as a store.
				tn := namedTypeName(info.TypeOf(v))
				if tn == "" {
					return true
				}
				for _, el := range v.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					lc.recordTypedStore(tn, key.Name, kv, info.TypeOf(kv.Value))
				}
			}
			return true
		})
	}
}

// recordFieldStore notes s.field = <closable> stores for the
// package-wide teardown check.
func (lc *lifecycleCtx) recordFieldStore(sel *ast.SelectorExpr, vt types.Type) {
	tn := namedTypeOf(lc.pass.Pkg.Info, sel.X)
	if tn == "" {
		return
	}
	lc.recordTypedStore(tn, sel.Sel.Name, sel, vt)
}

func (lc *lifecycleCtx) recordTypedStore(typeName, field string, at ast.Node, vt types.Type) {
	if vt == nil {
		return
	}
	switch {
	case isTimeResource(vt):
		if lc.tickers[typeName] == nil {
			lc.tickers[typeName] = map[string]ast.Node{}
		}
		if _, seen := lc.tickers[typeName][field]; !seen {
			lc.tickers[typeName][field] = at
		}
	case hasTeardown(vt):
		if lc.stores[typeName] == nil {
			lc.stores[typeName] = map[string]ast.Node{}
		}
		if _, seen := lc.stores[typeName][field]; !seen {
			lc.stores[typeName][field] = at
		}
	}
}

// checkFieldTeardowns reports closable/ticker fields no method of the
// owning type ever tears down.
func (lc *lifecycleCtx) checkFieldTeardowns() {
	for tn, fields := range lc.tickers {
		for field, at := range fields {
			if !lc.teardowns[tn][field] {
				lc.pass.Reportf(at.Pos(), "%s.%s holds a time.Ticker/Timer but no method of %s ever Stops it: wire it into the teardown path", tn, field, tn)
			}
		}
	}
	for tn, fields := range lc.stores {
		for field, at := range fields {
			if !lc.teardowns[tn][field] {
				lc.pass.Reportf(at.Pos(), "%s.%s stores a closable value but no method of %s ever closes it: every constructor needs a teardown path to this field", tn, field, tn)
			}
		}
	}
}

// --- small type helpers ---

func isTeardownName(name string) bool {
	for _, n := range teardownNames {
		if n == name {
			return true
		}
	}
	return false
}

// namedTypeOf resolves an expression (usually a method receiver
// identifier) to the bare name of its named struct type, "" otherwise.
func namedTypeOf(info *types.Info, e ast.Expr) string {
	t := info.TypeOf(unparen(e))
	return namedTypeName(t)
}

func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// hasTeardown reports whether t (or *t) offers a teardown method.
func hasTeardown(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, name := range teardownNames {
		if name == "Finish" {
			continue // Finish is a wiring name, not a capability marker
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}

// isTimeResource reports *time.Ticker / *time.Timer.
func isTimeResource(t types.Type) bool {
	t = types.Unalias(t)
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "time" {
		return false
	}
	return n.Obj().Name() == "Ticker" || n.Obj().Name() == "Timer"
}

func isWaitGroupType(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

// isWaitGroupCall reports x.<name>() where x is a sync.WaitGroup.
func isWaitGroupCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.TypeOf(sel.X)
	return t != nil && isWaitGroupType(t)
}

func containsWaitGroupCall(info *types.Info, body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupCall(info, call, name) {
			found = true
		}
		return !found
	})
	return found
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// inLoop reports whether the ancestor stack crosses a for/range
// statement (within the function being walked).
func inLoop(parents []ast.Node) bool {
	for _, p := range parents {
		switch p.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

func mark(m map[string]map[string]bool, key, field string) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	m[key][field] = true
}
