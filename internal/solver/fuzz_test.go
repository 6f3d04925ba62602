package solver

import (
	"fmt"
	"reflect"
	"testing"

	"privacyscope/internal/sym"
)

// fuzzOps are the comparison operators a decoded atom may use.
var fuzzOps = []sym.Op{sym.OpEq, sym.OpNe, sym.OpLt, sym.OpLe, sym.OpGt, sym.OpGe}

// fuzzChain decodes fuzz bytes into a chain of path-condition conjuncts,
// three bytes per conjunct: a shape, a selector (symbol in the low two
// bits, operator above) and a signed constant. Shapes cover what the
// engine conjoins: single-symbol comparisons either way round, affine
// forms with negative and fractional coefficients, negations, &&-joined
// pairs, constants, and conjuncts propagation cannot use (non-linear or
// multi-symbol).
func fuzzChain(data []byte, syms []*sym.Symbol, itn *sym.Interner) []sym.Expr {
	bin := func(op sym.Op, l, r sym.Expr) sym.Expr { return itn.NewBinary(op, l, r) }
	var out []sym.Expr
	for i := 0; i+2 < len(data); i += 3 {
		kind, sel, c := data[i], data[i+1], sym.IntConst{V: int32(int8(data[i+2]))}
		s := syms[int(sel&3)%len(syms)]
		t := syms[int(sel>>2&3)%len(syms)]
		op := fuzzOps[int(sel>>4)%len(fuzzOps)]
		atom := bin(op, s, c)
		var e sym.Expr
		switch kind % 9 {
		case 0:
			e = atom
		case 1:
			e = bin(op, c, s)
		case 2:
			k := sym.IntConst{V: int32(sel>>6) - 2} // -2..1
			e = bin(op, bin(sym.OpAdd, bin(sym.OpMul, k, s), sym.IntConst{V: int32(sel & 7)}), c)
		case 3:
			e = itn.NewUnary(sym.OpLNot, atom)
		case 4:
			e = bin(sym.OpLAnd, atom, bin(fuzzOps[int(sel)%len(fuzzOps)], t, sym.IntConst{V: c.V + 1}))
		case 5:
			e = sym.IntConst{V: int32(data[i+2] & 1)}
		case 6:
			e = bin(op, bin(sym.OpMul, s, t), c)
		case 7:
			e = bin(op, bin(sym.OpSub, s, t), c)
		case 8:
			e = bin(op, bin(sym.OpMul, sym.FloatConst{V: 2}, s), sym.FloatConst{V: float64(c.V) / 4})
		}
		out = append(out, e)
	}
	return out
}

// checkEnv checks an incrementally built Env against the path condition
// it stands for: it must equal a one-step Extend over all of pc's
// conjuncts, and it must mean what the atoms mean. Every integer in a
// window around zero — wide enough to hold every bound the decoded
// constants can produce — lies in a symbol's interval exactly when it
// satisfies, under sym.Eval, every atom the solver reads as a bound on that
// symbol; and a proven contradiction must be a real one.
func checkEnv(sv *Solver, env *Env, pc *PathCondition) string {
	if env == nil {
		env = trueEnv
	}
	if !reflect.DeepEqual(env, sv.Extend(nil, pc.conj...)) {
		return "differs from a one-step Extend"
	}
	bounds := map[*sym.Symbol][]sym.Expr{}
	for _, a := range sv.atomsOf(nil, pc.conj) {
		switch info := sv.atomInfoFor(a); info.kind {
		case atomFalse:
			if v, err := sym.Eval(a, nil); err != nil || !v.IsZero() {
				return fmt.Sprintf("atom %v read as false", a)
			}
			if !env.unsat {
				return "constant-false atom not proven"
			}
			return ""
		case atomBound:
			bounds[info.sm] = append(bounds[info.sm], a)
		}
	}
	for sm, atoms := range bounds {
		iv, sat := env.lookup(sm.ID), false
		for v := -300; v <= 300; v++ {
			holds := true
			for _, a := range atoms {
				r, err := sym.Eval(a, sym.Binding{sm.ID: sym.IntVal(int32(v))})
				holds = holds && err == nil && !r.IsZero()
			}
			sat = sat || holds
			if !env.unsat && (iv != nil && float64(v) >= iv.lo && float64(v) <= iv.hi && !iv.excluded[float64(v)]) != holds {
				return fmt.Sprintf("%v = %d: interval and atoms disagree", sm, v)
			}
		}
		if !sat {
			return ""
		}
	}
	if env.unsat {
		return "contradiction proven on a satisfiable condition"
	}
	return ""
}

// FuzzIncrementalFeasible pins the incremental solver: a chain of
// conjuncts is extended one at a time, as the engine does at every fork,
// and at every prefix the Env must match a from-scratch one and the
// atoms' meaning (checkEnv). Each step also forks a sibling on the negated
// conjunct, and every earlier Env is re-checked at the end, so an
// extension that writes through to a shared parent fails.
func FuzzIncrementalFeasible(f *testing.F) {
	// Scalability-shaped chains: s_i > i or its negation s_i <= i.
	for _, bits := range []uint{0, 0x155, 0x2aa, 0x3ff} {
		var seed []byte
		for i := 0; i < 10; i++ {
			op := byte(4 - bits>>i&1) // OpGt or OpLe
			seed = append(seed, 0, op<<4|byte(i%3), byte(i))
		}
		f.Add(seed)
	}
	// Switch-shaped chains: arm k is tag == v_k ∧ tag != v_j for j < k; a
	// repeated case value makes its later arm infeasible.
	for _, vals := range [][]byte{{1, 2, 3, 4}, {0, 1, 0, 7}, {5, 6, 7, 8, 9, 10, 11, 12}} {
		var seed []byte
		for k, v := range vals {
			seed = append(seed, 0, 0, v)
			for _, w := range vals[:k] {
				seed = append(seed, 0, 1<<4, w)
			}
		}
		f.Add(seed)
	}
	f.Add([]byte{3, 0x20, 5, 4, 0x41, 2, 5, 0, 0, 6, 0x16, 3, 7, 0x36, 1, 8, 0x52, 0xfd, 2, 0xc1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*64 {
			return
		}
		b := newBuilder()
		syms := []*sym.Symbol{b.FreshSecret(""), b.FreshSecret(""), b.FreshSecret("")}
		var itn *sym.Interner
		if len(data)%2 == 0 {
			itn = sym.NewInterner()
		}
		sv := New()
		sv.SetInterner(itn)
		chain := fuzzChain(data, syms, itn)
		pcs := []*PathCondition{True()}
		envs := []*Env{nil}
		for i, c := range chain {
			pc, env := pcs[i], envs[i]
			neg := itn.Negate(c)
			if why := checkEnv(sv, sv.Extend(env, neg), pc.And(neg)); why != "" {
				t.Fatalf("sibling at step %d (%v): %s", i, neg, why)
			}
			pcs = append(pcs, pc.And(c))
			envs = append(envs, sv.Extend(env, c))
			if why := checkEnv(sv, envs[i+1], pcs[i+1]); why != "" {
				t.Fatalf("prefix %d (%v): %s", i+1, pcs[i+1], why)
			}
		}
		for i := range envs {
			if why := checkEnv(sv, envs[i], pcs[i]); why != "" {
				t.Fatalf("prefix %d changed after later extensions: %s", i, why)
			}
		}
	})
}
