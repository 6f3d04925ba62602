package main

import (
	_ "embed"
	"fmt"
	"path/filepath"
	"strings"

	"privacyscope"
	"privacyscope/internal/batch"
	"privacyscope/internal/mlsuite"
)

//go:embed expected_audit.txt
var expectedAuditText string

// module is one enclave analysis unit of a corpus.
type module struct {
	name, c, edl, rules string
}

func (m module) options(l *layers) []privacyscope.Option {
	var opts []privacyscope.Option
	if m.rules != "" {
		opts = append(opts, privacyscope.WithConfigXML([]byte(m.rules)))
	}
	if l != nil {
		opts = append(opts, privacyscope.WithObserver(l.m))
	}
	return opts
}

// moduleResult is one analysed module of an op.
type moduleResult struct {
	rep *privacyscope.EnclaveReport
	err error
}

func checkModule(want moduleOutcome, r moduleResult) string {
	if r.err != nil {
		return r.err.Error()
	}
	return want.diff(fromEnclave(r.rep))
}

// audit is the paper's Table V workload as CLI users run it: one
// sequential caller analyses a fixed corpus, one module at a time, at
// default options. An op is one whole pass over the corpus in a seeded
// order, so every op does the same work.
type audit struct {
	corpus []module
	want   []moduleOutcome
	orders [][]int // op i visits the corpus in orders[i%len(orders)]
	hash   string
}

// opOrders is how many seeded visiting orders set-up draws for the
// sequential workloads; ops cycle through them.
const opOrders = 64

func newAudit(e env) (workload, error) {
	corpus, err := auditCorpus(e.root)
	if err != nil {
		return nil, err
	}
	expected, err := parseExpected(expectedAuditText)
	if err != nil {
		return nil, err
	}
	a := &audit{corpus: corpus}
	for _, m := range corpus {
		want, ok := expected[m.name]
		if !ok {
			return nil, fmt.Errorf("audit: no expected verdicts for %s", m.name)
		}
		a.want = append(a.want, want)
		delete(expected, m.name)
	}
	if len(expected) > 0 {
		return nil, fmt.Errorf("audit: expected verdicts for units not in the corpus: %v", sortedKeys(expected))
	}
	rng := newRand(e.seed, "audit/order")
	h := newInputHasher()
	for _, m := range corpus {
		h.add(m.name, m.c, m.edl, m.rules)
	}
	for k := 0; k < opOrders; k++ {
		order := rng.Perm(len(corpus))
		a.orders = append(a.orders, order)
		h.add(fmt.Sprint(order))
	}
	a.hash = h.sum()
	return a, nil
}

// auditCorpus loads the Table V modules, LogisticRegression, the two
// trojaned case studies, and the leak-pack and project example units.
func auditCorpus(root string) ([]module, error) {
	var corpus []module
	mods := append(mlsuite.Modules(), mlsuite.ExtensionModules()...)
	mods = append(mods,
		mlsuite.Module{Name: "MaliciousKmeans", C: mlsuite.MaliciousKmeansC, EDL: mlsuite.MaliciousKmeansEDL},
		mlsuite.Module{Name: "MaliciousLinReg", C: mlsuite.MaliciousLinRegC, EDL: mlsuite.MaliciousLinRegEDL})
	for _, m := range mods {
		corpus = append(corpus, module{name: "mlsuite/" + m.Name, c: m.C, edl: m.EDL})
	}
	for _, dir := range []string{"leakpacks", "project"} {
		units, err := batch.Discover(filepath.Join(root, "examples", dir))
		if err != nil {
			return nil, fmt.Errorf("audit corpus: %w", err)
		}
		if len(units) == 0 {
			return nil, fmt.Errorf("audit corpus: no units under examples/%s", dir)
		}
		for _, u := range units {
			corpus = append(corpus, module{name: dir + "/" + u.Name, c: u.Source, edl: u.EDL, rules: u.Rules})
		}
	}
	return corpus, nil
}

func (a *audit) order(i int) []int { return a.orders[i%len(a.orders)] }

func (a *audit) prepare(int) error { return nil }

func (a *audit) exec(i int, l *layers) any {
	out := make([]moduleResult, len(a.corpus))
	for _, k := range a.order(i) {
		m := a.corpus[k]
		rep, err := privacyscope.AnalyzeEnclave(m.c, m.edl, m.options(l)...)
		out[k] = moduleResult{rep, err}
	}
	return out
}

func (a *audit) check(_ int, out any) (int, string) {
	var bad []string
	for k, r := range out.([]moduleResult) {
		if d := checkModule(a.want[k], r); d != "" {
			bad = append(bad, a.corpus[k].name+": "+d)
		}
	}
	return len(a.corpus), strings.Join(bad, "; ")
}

func (a *audit) probe(i int, l *layers) error {
	for _, k := range a.order(i) {
		m := a.corpus[k]
		if err := l.frontEnd(m.c, m.edl, m.rules); err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
	}
	return nil
}

func (a *audit) verdictsPerOp() int { return len(a.corpus) }
func (a *audit) inputHash() string  { return a.hash }
func (a *audit) processWide() bool  { return false }
func (a *audit) close() error       { return nil }
