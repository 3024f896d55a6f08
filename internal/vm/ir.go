package vm

// Static analysis for the token-threaded tier (compile.go). The stack
// bytecode is lowered to a register form: because validated control flow
// gives every pc a single consistent stack depth on all paths reaching it,
// the stack slot at depth d can live in a fixed frame register (locals
// first, then one register per stack slot). The same analysis doubles as
// the compilability check — a module where any function has inconsistent
// depths, or whose call graph never settles on a fixed per-function return
// count, is left to the interpreter (the automatic fallback that
// vm.interp_fallbacks counts).

// hostSig is the shape of a resolved host function that stack analysis
// depends on. It is recorded at compile time so a later instantiation
// against a host table with different arities falls back to the
// interpreter instead of running miscompiled code.
type hostSig struct {
	nargs  int
	hasRet bool
}

// funcIR is the register-form lowering of one function.
type funcIR struct {
	// depth[pc] is the operand-stack depth (relative to the frame base) on
	// entry to pc, identical on every path; -1 marks statically unreachable
	// code.
	depth []int32
	// under[pc] marks a reachable pc whose depth is too shallow for its
	// opcode: the interpreter would trap with ErrStackUnderflow there at
	// run time, so the compiled form traps identically and the pc's
	// successors are not propagated.
	under []bool
	// maxDepth sizes the frame: the function needs numLocals+maxDepth
	// registers.
	maxDepth int
	// nret is the number of values every return leaves above the frame
	// base (what the caller's depth advances by).
	nret int
}

// analyzeStatus is the outcome of one per-function analysis pass.
type analyzeStatus int

const (
	analyzeOK analyzeStatus = iota
	// analyzeDeferred means the function calls a function whose return
	// count is not known yet; retry after more of the module resolves.
	analyzeDeferred
	// analyzeFail means the function cannot be lowered (inconsistent
	// depths, inconsistent return depths): the whole module stays on the
	// interpreter.
	analyzeFail
)

// analyzeFunc runs the depth dataflow over one function. nret/known carry
// the per-function return counts resolved so far. In optimistic mode a
// call to an unresolved function ends the path instead of deferring —
// used to extract a candidate return count for functions on call cycles,
// later verified by a strict pass.
func analyzeFunc(m *Module, fi int, nret []int, known []bool, sigs []hostSig, optimistic bool) (*funcIR, analyzeStatus) {
	f := &m.Funcs[fi]
	code := f.code
	ir := &funcIR{
		depth: make([]int32, len(code)),
		under: make([]bool, len(code)),
	}
	for i := range ir.depth {
		ir.depth[i] = -1
	}
	ir.depth[0] = 0
	work := make([]int, 0, 16)
	work = append(work, 0)
	retDepth := -1
	fail := false

	// succ merges depth nd into pc; a conflicting merge fails the function.
	succ := func(pc, nd int) {
		if nd > ir.maxDepth {
			ir.maxDepth = nd
		}
		if cur := ir.depth[pc]; cur < 0 {
			ir.depth[pc] = int32(nd)
			work = append(work, pc)
		} else if int(cur) != nd {
			fail = true
		}
	}

	for len(work) > 0 && !fail {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := int(ir.depth[pc])
		in := code[pc]
		switch in.op {
		case opRet:
			if retDepth < 0 {
				retDepth = d
			} else if retDepth != d {
				return nil, analyzeFail
			}
		case opHalt, opUnreachable:
			// No successors.
		case opJmp:
			succ(int(in.arg), d)
		case opJz, opJnz:
			if d < 1 {
				ir.under[pc] = true
				continue
			}
			succ(int(in.arg), d-1)
			succ(pc+1, d-1)
		case opCall:
			callee := int(in.arg)
			np := m.Funcs[callee].NumParams
			if d < np {
				ir.under[pc] = true
				continue
			}
			if !known[callee] {
				if optimistic {
					continue // path ends here; resolved by the strict pass
				}
				return nil, analyzeDeferred
			}
			succ(pc+1, d-np+nret[callee])
		case opHostCall:
			sig := sigs[in.arg]
			if d < sig.nargs {
				ir.under[pc] = true
				continue
			}
			nd := d - sig.nargs
			if sig.hasRet {
				nd++
			}
			succ(pc+1, nd)
		default:
			eff := stackEffect[in.op]
			if !eff.fixed {
				// Unknown/unsupported opcode: leave the module to the
				// interpreter.
				return nil, analyzeFail
			}
			if d < int(eff.pop) {
				ir.under[pc] = true
				continue
			}
			succ(pc+1, d-int(eff.pop)+int(eff.push))
		}
	}
	if fail {
		return nil, analyzeFail
	}
	if retDepth > 0 {
		ir.nret = retDepth
	}
	return ir, analyzeOK
}

// analyzeModule lowers every function, resolving per-function return
// counts by fixpoint over the call graph; functions on call cycles get a
// candidate count from their call-free return paths, verified by a final
// strict pass. Returns ok=false when the module must stay interpreted.
func analyzeModule(m *Module, sigs []hostSig) ([]*funcIR, bool) {
	n := len(m.Funcs)
	irs := make([]*funcIR, n)
	known := make([]bool, n)
	nret := make([]int, n)
	for {
		progress := false
		remaining := 0
		for i := 0; i < n; i++ {
			if known[i] {
				continue
			}
			ir, st := analyzeFunc(m, i, nret, known, sigs, false)
			switch st {
			case analyzeFail:
				return nil, false
			case analyzeOK:
				irs[i] = ir
				nret[i] = ir.nret
				known[i] = true
				progress = true
			default:
				remaining++
			}
		}
		if remaining == 0 {
			return irs, true
		}
		if !progress {
			break
		}
	}
	// The remaining functions sit on call cycles (recursion). Guess each
	// one's return count from the return paths reachable without entering
	// the cycle, then verify every guess with a strict pass.
	var cyclic []int
	for i := 0; i < n; i++ {
		if known[i] {
			continue
		}
		ir, st := analyzeFunc(m, i, nret, known, sigs, true)
		if st != analyzeOK {
			return nil, false
		}
		nret[i] = ir.nret
		cyclic = append(cyclic, i)
	}
	for _, i := range cyclic {
		known[i] = true
	}
	for _, i := range cyclic {
		ir, st := analyzeFunc(m, i, nret, known, sigs, false)
		if st != analyzeOK || ir.nret != nret[i] {
			return nil, false
		}
		irs[i] = ir
	}
	return irs, true
}
