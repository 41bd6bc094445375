// Fixture exercising the edge kinds beyond plain calls: method values,
// functions stored into function-typed fields, interface dispatch and
// go statements.
package cg

func target() {}

func helper() {}

func spawned() {}

type T struct{}

func (T) Method() {}

// Pool holds a function-typed field; storing target there must keep
// target reachable from the storer.
type Pool struct {
	fold func()
}

type Runner interface{ Run() }

type Impl struct{}

func (Impl) Run() { helper() }

// Use takes no direct call to target or T.Method — only references —
// and calls Run only through the interface.
func Use(r Runner, t T) {
	mv := t.Method // method value: reference edge
	_ = mv
	p := Pool{fold: target} // function-typed field: reference edge
	p.fold()                // dynamic call, statically unresolvable
	r.Run()                 // interface dispatch: expands to (Impl).Run
	go spawned()            // go statement: a call edge like any other call
}

// Isolated is referenced by nobody; it must not be reachable from Use.
func Isolated() {}
