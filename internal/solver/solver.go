package solver

import (
	"math"
	"slices"
	"sync"

	"privacyscope/internal/obs"
	"privacyscope/internal/sym"
)

// Result is the solver's three-valued verdict on a path condition.
type Result int

// Verdicts. Unknown means the solver could not decide; callers treating the
// path as feasible stay sound (no feasible path is pruned).
const (
	Unsat Result = iota + 1
	Sat
	Unknown
)

// String names the verdict.
func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// interval is a closed interval over the 32-bit integers a symbol ranges
// over, with optional excluded points (from != constraints).
type interval struct {
	lo, hi float64
	// excluded is nil until the first exclusion and copied on every new
	// one, so an interval copied out of a shared Env never writes through.
	excluded map[float64]bool
}

func int32Interval() interval { return interval{lo: math.MinInt32, hi: math.MaxInt32} }

func (iv *interval) empty() bool {
	lo, hi := math.Ceil(iv.lo), math.Floor(iv.hi)
	if iv.lo > iv.hi || lo > hi {
		return true
	}
	// A finite integer interval fully covered by exclusions is empty.
	if hi-lo < 64 {
		for v := lo; v <= hi; v++ {
			if !iv.excluded[v] {
				return false
			}
		}
		return true
	}
	return false
}

// tighten applies the bound "symbol op c" and reports whether the interval
// changed. The result does not depend on the order bounds are applied in:
// the bounds keep the tightest value and exclusions form a set.
func (iv *interval) tighten(op sym.Op, c float64) bool {
	if c != c { // a NaN bound constrains no integer
		return false
	}
	lo, hi := iv.lo, iv.hi
	switch op {
	case sym.OpEq:
		lo, hi = max(lo, c), min(hi, c)
	case sym.OpNe:
		if iv.excluded[c] {
			return false
		}
		ex := make(map[float64]bool, len(iv.excluded)+1)
		for v := range iv.excluded {
			ex[v] = true
		}
		ex[c] = true
		iv.excluded = ex
		return true
	case sym.OpLt:
		hi = min(hi, math.Ceil(c)-1)
	case sym.OpLe:
		hi = min(hi, math.Floor(c))
	case sym.OpGt:
		lo = max(lo, math.Floor(c)+1)
	case sym.OpGe:
		lo = max(lo, math.Ceil(c))
	}
	changed := lo != iv.lo || hi != iv.hi
	iv.lo, iv.hi = lo, hi
	return changed
}

// Solver decides satisfiability of path conditions via affine
// normalization plus interval propagation over the symbols. The zero value
// is ready to use.
type Solver struct {
	obs obs.Observer
	itn *sym.Interner // optional: canonicalizes solver-built negations

	// atoms caches atomInfo per canonical (interned) conjunct, sparing
	// the affine extraction when a conjunct recurs across paths. Pointer
	// identity is structural identity, so the cache is bounded by the
	// arena; non-interned atoms are analyzed fresh each time.
	atoms sync.Map // sym.Expr (canonical) → *atomInfo
}

// SetInterner hands the solver the engine's intern arena so the negations
// it synthesizes while flattening conjuncts are canonical too (and thus
// hit the per-atom cache). Call before the first query; a nil arena (or
// never calling this) keeps the solver fully structural.
func (s *Solver) SetInterner(in *sym.Interner) { s.itn = in }

// New returns a Solver.
func New() *Solver { return &Solver{} }

// NewObserved returns a Solver reporting query counters to o.
func NewObserved(o obs.Observer) *Solver { return &Solver{obs: obs.Or(o)} }

// o returns the observer, keeping the zero-value Solver usable.
func (s *Solver) o() obs.Observer { return obs.Or(s.obs) }

// Env is the interval environment of a path condition: an interval for
// every symbol some conjunct bounds, and whether one of them is already
// empty. Every atom bounds a single symbol without reading any other
// symbol's interval, and tighten is order-independent, so an Env extended
// one conjunct at a time equals one built from the whole condition in one
// pass. An Env is immutable — Extend returns a new one, or its argument
// when nothing changes — so forked exploration states share their parent's
// Env and each fork pays only for its own conjuncts. The nil *Env is the
// empty condition.
type Env struct {
	ivs   []symInterval // sorted by symbol ID
	unsat bool
}

type symInterval struct {
	id int
	iv interval
}

var trueEnv, unsatEnv = &Env{}, &Env{unsat: true}

// Extend returns the environment of env's condition ∧ conj.
func (s *Solver) Extend(env *Env, conj ...sym.Expr) *Env {
	if env == nil {
		env = trueEnv
	}
	if env.unsat {
		return env
	}
	next := env
	var buf [4]sym.Expr
	for _, a := range s.atomsOf(buf[:0], conj) {
		info := s.atomInfoFor(a)
		if info.kind == atomFalse {
			return unsatEnv
		}
		if info.kind == atomOpaque {
			continue
		}
		i, found := next.find(info.sm.ID)
		iv := int32Interval()
		if found {
			iv = next.ivs[i].iv
		}
		if !iv.tighten(info.op, info.c) && found {
			continue
		}
		if iv.empty() {
			return unsatEnv
		}
		if next == env {
			next = &Env{ivs: make([]symInterval, len(env.ivs), len(env.ivs)+1)}
			copy(next.ivs, env.ivs)
		}
		if found {
			next.ivs[i].iv = iv
		} else {
			next.ivs = slices.Insert(next.ivs, i, symInterval{id: info.sm.ID, iv: iv})
		}
	}
	return next
}

// find locates symbol id's interval, or where it would be inserted.
func (env *Env) find(id int) (int, bool) {
	return slices.BinarySearchFunc(env.ivs, id, func(x symInterval, id int) int { return x.id - id })
}

// lookup returns symbol id's interval, or nil when no conjunct bounds it.
func (env *Env) lookup(id int) *interval {
	if i, ok := env.find(id); ok {
		return &env.ivs[i].iv
	}
	return nil
}

// Check returns Unsat when the conjunction is provably unsatisfiable, Sat
// when interval propagation finds a verified model, and Unknown otherwise.
func (s *Solver) Check(pc *PathCondition) Result {
	s.o().Add("solver.queries", 1)
	env := s.Extend(nil, pc.conj...)
	if env.unsat {
		s.o().Add("solver.unsat", 1)
		return Unsat
	}
	if _, ok := s.model(pc, env); ok {
		s.o().Add("solver.sat", 1)
		return Sat
	}
	s.o().Add("solver.unknown", 1)
	return Unknown
}

// Feasible reports whether the path whose interval environment is env may
// be satisfiable (everything except a proven Unsat). This is the engine's
// pruning predicate: sound, possibly exploring a few infeasible paths. The
// propagation already ran as the environment was extended, so the query
// itself only reads the verdict; the model search of Check never runs.
func (s *Solver) Feasible(env *Env) bool {
	s.o().Add("solver.queries", 1)
	if env != nil && env.unsat {
		s.o().Add("solver.unsat", 1)
		return false
	}
	return true
}

// Model attempts to produce a concrete binding of all symbols in pc (plus
// any extra symbols supplied) that satisfies every conjunct. Used by the
// checker to construct replayable leak witnesses.
func (s *Solver) Model(pc *PathCondition, extra []*sym.Symbol) (sym.Binding, bool) {
	s.o().Add("solver.queries", 1)
	env := s.Extend(nil, pc.conj...)
	if env.unsat {
		return nil, false
	}
	b, ok := s.model(pc, env)
	if !ok {
		return nil, false
	}
	for _, x := range extra {
		if _, bound := b[x.ID]; !bound {
			b[x.ID] = sym.IntVal(0)
		}
	}
	return b, true
}

// flatten appends the atoms of e to out: it splits top-level && conjuncts
// and strips double negation. The negations it builds go through the
// intern arena (when attached) so they share identity with engine-built
// atoms and stay cacheable.
func (s *Solver) flatten(out []sym.Expr, e sym.Expr) []sym.Expr {
	if b, ok := e.(*sym.Binary); ok && b.Op == sym.OpLAnd {
		return s.flatten(s.flatten(out, b.L), b.R)
	}
	if u, ok := e.(*sym.Unary); ok && u.Op == sym.OpLNot {
		return append(out, s.itn.Negate(u.X))
	}
	return append(out, e)
}

// atomsOf appends the atoms of every conjunct to buf.
func (s *Solver) atomsOf(buf []sym.Expr, conj []sym.Expr) []sym.Expr {
	for _, e := range conj {
		buf = s.flatten(buf, e)
	}
	return buf
}

// atomKind classifies what a conjunct contributes to propagation.
type atomKind int

const (
	atomOpaque atomKind = iota // no usable interval information
	atomFalse                  // constant-false conjunct: immediately unsat
	atomBound                  // single-symbol affine comparison s OP c
)

// atomInfo is a conjunct's normalized contribution to propagation — the
// expensive half (affine extraction, coefficient normalization), a pure
// function of the conjunct and therefore cacheable per canonical node.
type atomInfo struct {
	kind atomKind
	sm   *sym.Symbol
	op   sym.Op // flipped already if the coefficient was negative
	c    float64
}

var opaqueAtom = &atomInfo{kind: atomOpaque}
var falseAtom = &atomInfo{kind: atomFalse}

// analyzeAtom normalizes one boolean conjunct to its interval contribution.
func analyzeAtom(e sym.Expr) *atomInfo {
	// Constant conjuncts decide immediately.
	if c, ok := e.(sym.IntConst); ok {
		if c.V == 0 {
			return falseAtom
		}
		return opaqueAtom
	}
	b, ok := e.(*sym.Binary)
	if !ok || !b.Op.IsComparison() {
		return opaqueAtom // opaque conjunct; stay sound by ignoring it
	}
	// Normalize to (L - R) OP 0 as an affine form.
	diff := sym.ExtractAffine(&sym.Binary{Op: sym.OpSub, L: b.L, R: b.R})
	if diff == nil {
		return opaqueAtom
	}
	if diff.IsConstant() {
		if constHolds(b.Op, diff.Const) {
			return opaqueAtom
		}
		return falseAtom
	}
	syms := diff.Symbols()
	if len(syms) != 1 {
		return opaqueAtom
	}
	sm := syms[0]
	a := diff.Coef[sm.ID]
	c := -diff.Const / a // a·s + const OP 0  ⇒  s OP' c
	op := b.Op
	if a < 0 {
		op = flipOp(op)
	}
	return &atomInfo{kind: atomBound, sm: sm, op: op, c: c}
}

// atomInfoFor analyzes e, memoizing per canonical node. Interned atoms are
// immutable and pointer-unique, so the sync.Map read path is lock-free and
// a racing duplicate Store is idempotent.
func (s *Solver) atomInfoFor(e sym.Expr) *atomInfo {
	if !sym.Interned(e) {
		return analyzeAtom(e)
	}
	if v, ok := s.atoms.Load(e); ok {
		return v.(*atomInfo)
	}
	info := analyzeAtom(e)
	s.atoms.Store(e, info)
	return info
}

func constHolds(op sym.Op, d float64) bool {
	switch op {
	case sym.OpEq:
		return d == 0
	case sym.OpNe:
		return d != 0
	case sym.OpLt:
		return d < 0
	case sym.OpLe:
		return d <= 0
	case sym.OpGt:
		return d > 0
	case sym.OpGe:
		return d >= 0
	}
	return true
}

func flipOp(op sym.Op) sym.Op {
	switch op {
	case sym.OpLt:
		return sym.OpGt
	case sym.OpLe:
		return sym.OpGe
	case sym.OpGt:
		return sym.OpLt
	case sym.OpGe:
		return sym.OpLe
	default:
		return op
	}
}

// model picks candidate values within the propagated intervals and verifies
// them against every conjunct, with a small amount of per-symbol candidate
// search.
func (s *Solver) model(pc *PathCondition, env *Env) (sym.Binding, bool) {
	var symbols []*sym.Symbol
	seen := make(map[int]bool)
	for _, e := range pc.conj {
		for _, sm := range sym.FreeSymbols(e) {
			if !seen[sm.ID] {
				seen[sm.ID] = true
				symbols = append(symbols, sm)
			}
		}
	}
	binding := make(sym.Binding, len(symbols))
	budget := searchBudget
	if try(pc, symbols, env, binding, 0, &budget) {
		return binding, true
	}
	return nil, false
}

// searchBudget bounds the candidate combinations the model search tries;
// without it, many nonlinear symbols make the DFS exponential.
const searchBudget = 4096

// try assigns candidates to symbols[idx:] depth-first; verifies once all
// symbols are bound.
func try(pc *PathCondition, symbols []*sym.Symbol, env *Env, b sym.Binding, idx int, budget *int) bool {
	if *budget <= 0 {
		return false
	}
	if idx == len(symbols) {
		*budget--
		return verify(pc, b)
	}
	sm := symbols[idx]
	for _, cand := range candidates(env.lookup(sm.ID)) {
		b[sm.ID] = sym.IntVal(cand)
		if try(pc, symbols, env, b, idx+1, budget) {
			return true
		}
		if *budget <= 0 {
			break
		}
	}
	delete(b, sm.ID)
	return false
}

// candidates enumerates a handful of values inside the interval, skipping
// excluded points.
func candidates(iv *interval) []int32 {
	if iv == nil {
		return []int32{0, 1, -1, 2}
	}
	lo := clampToInt32(math.Ceil(iv.lo))
	hi := clampToInt32(math.Floor(iv.hi))
	if lo > hi {
		return nil
	}
	// Small magnitudes first: witness replays prefer values that stay
	// clear of narrow-type wraparound.
	raw := []int64{0, 1, -1, 2, -2, int64(lo), int64(hi), int64(lo) + 1, int64(hi) - 1, (int64(lo) + int64(hi)) / 2}
	var out []int32
	seenC := make(map[int64]bool)
	for _, v := range raw {
		if v < int64(lo) || v > int64(hi) || seenC[v] || iv.excluded[float64(v)] {
			continue
		}
		seenC[v] = true
		out = append(out, int32(v))
	}
	// If every candidate is excluded, scan a short window.
	if len(out) == 0 {
		for v := int64(lo); v <= int64(hi) && v < int64(lo)+256; v++ {
			if !iv.excluded[float64(v)] {
				out = append(out, int32(v))
				break
			}
		}
	}
	return out
}

func clampToInt32(v float64) int32 {
	if v < math.MinInt32 {
		return math.MinInt32
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

// verify evaluates every conjunct under the binding.
func verify(pc *PathCondition, b sym.Binding) bool {
	for _, e := range pc.conj {
		v, err := sym.Eval(e, b)
		if err != nil || v.IsZero() {
			return false
		}
	}
	return true
}
