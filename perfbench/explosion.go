package main

import (
	"fmt"
	"strings"

	"privacyscope"
	"privacyscope/internal/bench"
	"privacyscope/internal/symexec"
)

// explosion is the §VIII-C path-explosion workload: one sequential caller
// analyses a fixed, stratified cycle of generated programs, and an op is
// one whole cycle in a seeded order. Every cycle holds one program per
// stratum below, so the op's cost does not depend on which values the seed
// drew; varying the order from op to op keeps the heap peak, which depends
// on where the collector runs, from depending on one order.
type explosion struct {
	items  []explosionItem
	orders [][]int // op i visits the items in orders[i%len(orders)]
	hash   string
}

// explosionItem is one generated program with the verdict its generator
// implies.
type explosionItem struct {
	name   string
	c, edl string // edl is empty for a single-function program
	want   moduleOutcome
}

// scalabilityStrata pair a branch count b (2^b paths) with a band of
// straight-line lengths s for bench.ScalabilityProgram(b, s). The program
// sums secrets[i%4] over s statements into acc, then adds ±(i+1) in each of
// the b secret branches, and writes acc to output[0]. With s = 1, acc is
// secrets[0] plus a path constant, so the output recovers secrets[0]: an
// explicit leak. With s ≥ 2, acc adds at least two distinct secrets, so no
// single secret is recoverable and the program is secure. The analysis
// cost grows with s in steps (s = 2–8, 9–14, 15–…); each band lies within
// one step, so the seed's draw does not change an op's cost.
var scalabilityStrata = []struct{ b, sLo, sHi int }{
	{9, 1, 1},  // the leaking band: witness replay runs
	{9, 9, 14}, // long straight-line prefix
	{10, 4, 8}, // short prefix
	{11, 4, 8}, // short prefix, 2048 paths
}

// chainDepths are the bench.SummaryBenchProgram helper-chain depths, one
// single-entry module each. Inline exploration expands 2^depth-1 calls.
// Each helper adds a constant, so the entry's else-arm writes
// 2·secrets[0] plus a constant to output[0]: one explicit leak per entry.
var chainDepths = []int{5, 6, 7}

var scalabilityParams = []symexec.ParamSpec{
	{Name: "secrets", Class: symexec.ParamSecret},
	{Name: "output", Class: symexec.ParamOut},
}

func newExplosion(e env) (workload, error) {
	rng := newRand(e.seed, "path-explosion")
	var items []explosionItem
	for _, st := range scalabilityStrata {
		s := st.sLo + rng.Intn(st.sHi-st.sLo+1)
		want := outcome{verdict: "secure", rules: map[string]int{}}
		if s == 1 {
			want = outcome{verdict: "findings", rules: map[string]int{"PS-EXPL": atLeastOne}}
		}
		items = append(items, explosionItem{
			name: fmt.Sprintf("scalability(b=%d,s=%d)", st.b, s),
			c:    bench.ScalabilityProgram(st.b, s),
			want: moduleOutcome{"f": want},
		})
	}
	for _, d := range chainDepths {
		c, edl := bench.SummaryBenchProgram(d, 1)
		items = append(items, explosionItem{
			name: fmt.Sprintf("chain(depth=%d)", d),
			c:    c, edl: edl,
			want: moduleOutcome{"enclave_e0": {verdict: "findings", rules: map[string]int{"PS-EXPL": 1}}},
		})
	}
	x := &explosion{items: items}
	h := newInputHasher()
	for _, it := range items {
		h.add(it.name, it.c, it.edl)
	}
	for k := 0; k < opOrders; k++ {
		order := rng.Perm(len(items))
		x.orders = append(x.orders, order)
		h.add(fmt.Sprint(order))
	}
	x.hash = h.sum()
	return x, nil
}

func (x *explosion) prepare(int) error { return nil }

func (x *explosion) exec(i int, l *layers) any {
	var opts []privacyscope.Option
	if l != nil {
		opts = append(opts, privacyscope.WithObserver(l.m))
	}
	out := make([]moduleResult, len(x.items))
	for _, k := range x.orders[i%len(x.orders)] {
		it := x.items[k]
		if it.edl != "" {
			rep, err := privacyscope.AnalyzeEnclave(it.c, it.edl, opts...)
			out[k] = moduleResult{rep, err}
			continue
		}
		r, err := privacyscope.AnalyzeFunction(it.c, "f", scalabilityParams, opts...)
		if err == nil {
			out[k] = moduleResult{rep: &privacyscope.EnclaveReport{Reports: []*privacyscope.Report{r}}}
		} else {
			out[k] = moduleResult{err: err}
		}
	}
	return out
}

func (x *explosion) check(_ int, out any) (int, string) {
	var bad []string
	for k, r := range out.([]moduleResult) {
		if d := checkModule(x.items[k].want, r); d != "" {
			bad = append(bad, x.items[k].name+": "+d)
		}
	}
	return len(x.items), strings.Join(bad, "; ")
}

func (x *explosion) probe(_ int, l *layers) error {
	for _, it := range x.items {
		if err := l.frontEnd(it.c, it.edl, ""); err != nil {
			return fmt.Errorf("%s: %w", it.name, err)
		}
	}
	return nil
}

func (x *explosion) verdictsPerOp() int { return len(x.items) }
func (x *explosion) inputHash() string  { return x.hash }
func (x *explosion) processWide() bool  { return false }
func (x *explosion) close() error       { return nil }
