package main

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"privacyscope"
)

// outcome is one entry point's result reduced to what the benchmark
// checks: the verdict and the multiset of finding rule IDs.
type outcome struct {
	verdict string
	rules   map[string]int
}

// atLeastOne as an expected rule count accepts any positive count: the
// generator fixes which rule must fire but not on how many paths.
const atLeastOne = -1

// moduleOutcome maps entry-point names to their outcomes.
type moduleOutcome map[string]outcome

func fromEnclave(rep *privacyscope.EnclaveReport) moduleOutcome {
	out := moduleOutcome{}
	for _, r := range rep.Reports {
		out[r.Function] = fromReport(r)
	}
	return out
}

func fromReport(r *privacyscope.Report) outcome {
	o := outcome{verdict: r.Verdict().String(), rules: map[string]int{}}
	for _, f := range r.Findings {
		o.rules[f.Rule]++
	}
	return o
}

func fromEnvelope(env *privacyscope.Envelope) moduleOutcome {
	out := moduleOutcome{}
	for _, fn := range env.Functions {
		out[fn.Function] = outcome{verdict: fn.Verdict, rules: map[string]int{}}
	}
	for _, f := range env.Findings {
		if o, ok := out[f.Function]; ok {
			o.rules[f.Rule]++
		}
	}
	return out
}

// diff returns "" when got matches want, else a description of the first
// mismatch. Inconclusive and Error never match: no expected verdict uses
// them.
func (want moduleOutcome) diff(got moduleOutcome) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entry points, want %d", len(got), len(want))
	}
	for _, fn := range sortedKeys(want) {
		w := want[fn]
		g, ok := got[fn]
		if !ok {
			return fmt.Sprintf("%s: missing", fn)
		}
		if g.verdict != w.verdict {
			return fmt.Sprintf("%s: verdict %s, want %s", fn, g.verdict, w.verdict)
		}
		for rule, n := range g.rules {
			if _, ok := w.rules[rule]; !ok {
				return fmt.Sprintf("%s: unexpected %d×%s", fn, n, rule)
			}
		}
		for rule, n := range w.rules {
			if n == atLeastOne && g.rules[rule] > 0 {
				continue
			}
			if g.rules[rule] != n {
				return fmt.Sprintf("%s: %d×%s, want %d", fn, g.rules[rule], rule, n)
			}
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseExpected reads the "unit function verdict [rule:count ...]" lines
// of an expected-verdicts file.
func parseExpected(text string) (map[string]moduleOutcome, error) {
	out := map[string]moduleOutcome{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("expected verdicts line %d: want unit, function and verdict", n)
		}
		o := outcome{verdict: f[2], rules: map[string]int{}}
		for _, rc := range f[3:] {
			rule, count, ok := strings.Cut(rc, ":")
			c, err := strconv.Atoi(count)
			if !ok || err != nil || c <= 0 {
				return nil, fmt.Errorf("expected verdicts line %d: bad finding count %q", n, rc)
			}
			o.rules[rule] = c
		}
		if out[f[0]] == nil {
			out[f[0]] = moduleOutcome{}
		}
		out[f[0]][f[1]] = o
	}
	return out, sc.Err()
}
