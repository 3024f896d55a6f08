package vm

import "fmt"

// Stack typing: the link-time rule that makes every loadable module a
// compiled one, as WebAssembly's validator types the operand stack. A depth
// dataflow gives every reachable pc one operand-stack depth (relative to its
// frame base) on all paths reaching it, and linking rejects a module where
// it cannot: a merge point reached at two depths, a pop below the frame
// base, returns at different depths, a recursive function whose return
// count no call-free path settles, or a depth above maxFrameDepth. What
// linking accepts therefore cannot underflow at run time, and the slot at
// depth d can live in a fixed frame register (locals first, then one
// register per stack slot) — the form translate.go emits. Statically
// unreachable code is neither typed nor emitted.

// Execution limits. A frame holds at most maxFrameDepth operands and at most
// maxCallDepth frames are live, so the operand stack as a whole stays within
// maxValueStack without a run-time check: ErrStackOverflow means call depth.
const (
	maxCallDepth  = 128
	maxValueStack = 64 << 10
	maxFrameDepth = maxValueStack / maxCallDepth
)

// hostSig is the shape of a resolved host function that stack typing
// depends on. A module is typed against one set of them (Module.Link).
type hostSig struct {
	nargs  int
	hasRet bool
}

// funcIR is the typing of one function.
type funcIR struct {
	// depth[pc] is the operand-stack depth on entry to pc, identical on
	// every path; -1 marks statically unreachable code.
	depth []int32
	// maxDepth sizes the frame: the function needs numLocals+maxDepth
	// registers.
	maxDepth int
	// nret is the number of values every return leaves above the frame
	// base (what the caller's depth advances by); -1 while analyzeFunc has
	// reached no ret, 0 for a function that never returns.
	nret int
	// openCall is the pc of a call whose callee's return count was not
	// settled when an optimistic pass ended the path there; -1 otherwise.
	openCall int
}

// typeErr reports the instruction at pc as one linking cannot type.
func (f *Func) typeErr(pc int, format string, args ...any) error {
	return fmt.Errorf("%w: func %q pc %d (%s): %s", ErrBadModule, f.Name, pc, opNames[f.code[pc].op], fmt.Sprintf(format, args...))
}

// analyzeFunc runs the depth dataflow over one function. nret/known carry
// the per-function return counts settled so far. A call to an unsettled
// function defers the whole analysis (nil, nil) — or, in optimistic mode,
// only ends the path, which yields a candidate return count for a function
// on a call cycle from its call-free return paths.
func analyzeFunc(m *Module, fi int, nret []int, known []bool, sigs []hostSig, optimistic bool) (*funcIR, error) {
	f := &m.Funcs[fi]
	code := f.code
	ir := &funcIR{depth: make([]int32, len(code)), nret: -1, openCall: -1}
	for i := range ir.depth {
		ir.depth[i] = -1
	}
	ir.depth[0] = 0
	work := append(make([]int, 0, 16), 0)
	retPC := -1

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := int(ir.depth[pc])
		in := code[pc]
		pop, push := int(stackEffect[in.op].pop), int(stackEffect[in.op].push)
		switch in.op {
		case opCall:
			pop = m.Funcs[in.arg].NumParams
			push = nret[in.arg]
		case opHostCall:
			pop = sigs[in.arg].nargs
			push = int(b2i(sigs[in.arg].hasRet))
		}
		if d < pop {
			return nil, f.typeErr(pc, "pops %d with %d on the stack", pop, d)
		}
		if in.op == opCall && !known[in.arg] {
			if !optimistic {
				return nil, nil
			}
			if ir.openCall < 0 {
				ir.openCall = pc
			}
			continue
		}
		nd := d - pop + push
		if nd > maxFrameDepth {
			return nil, f.typeErr(pc, "stack depth %d exceeds the frame limit %d", nd, maxFrameDepth)
		}
		if nd > ir.maxDepth {
			ir.maxDepth = nd
		}

		var succs [2]int
		n := 0
		switch in.op {
		case opRet:
			if retPC >= 0 && ir.nret != d {
				return nil, f.typeErr(pc, "stack depth %d here, %d on another path (the ret at pc %d)", d, ir.nret, retPC)
			}
			retPC, ir.nret = pc, d
		case opHalt, opUnreachable:
		case opJmp:
			succs[0], n = int(in.arg), 1
		case opJz, opJnz:
			succs[0], succs[1], n = int(in.arg), pc+1, 2
		default:
			succs[0], n = pc+1, 1
		}
		for _, to := range succs[:n] {
			if cur := int(ir.depth[to]); cur < 0 {
				ir.depth[to] = int32(nd)
				work = append(work, to)
			} else if cur != nd {
				return nil, f.typeErr(to, "stack depth %d here, %d on another path", nd, cur)
			}
		}
	}
	return ir, nil
}

// analyzeModule types every function, settling per-function return counts
// by fixpoint over the call graph. When only call cycles remain, each
// function on one takes a candidate count from the return paths it reaches
// without recursing; the final strict pass over those functions verifies
// every candidate against the paths that do recurse.
func analyzeModule(m *Module, sigs []hostSig) ([]*funcIR, error) {
	n := len(m.Funcs)
	irs := make([]*funcIR, n)
	known := make([]bool, n)
	nret := make([]int, n)
	var guessed []int
	for left := n; left > 0; {
		before := left
		for i := range m.Funcs {
			if known[i] {
				continue
			}
			ir, err := analyzeFunc(m, i, nret, known, sigs, false)
			if err != nil {
				return nil, err
			}
			if ir != nil {
				ir.nret = max(ir.nret, 0)
				irs[i], nret[i], known[i] = ir, ir.nret, true
				left--
			}
		}
		if left < before {
			continue
		}
		first := len(guessed)
		var stuck error
		for i := range m.Funcs {
			if known[i] {
				continue
			}
			ir, err := analyzeFunc(m, i, nret, known, sigs, true)
			if err != nil {
				return nil, err
			}
			if ir.nret >= 0 {
				nret[i] = ir.nret
				guessed = append(guessed, i)
			} else if stuck == nil {
				f := &m.Funcs[i]
				stuck = f.typeErr(ir.openCall, "the return count of %q is unsettled: no path of %q returns without recursing",
					m.Funcs[f.code[ir.openCall].arg].Name, f.Name)
			}
		}
		if len(guessed) == first {
			return nil, stuck
		}
		for _, i := range guessed[first:] {
			known[i] = true
			left--
		}
	}
	for _, i := range guessed {
		ir, err := analyzeFunc(m, i, nret, known, sigs, false)
		if err != nil {
			return nil, err
		}
		irs[i] = ir
	}
	return irs, nil
}
