package symexec

import (
	"fmt"
	"strings"
	"testing"
)

// branchySrc forks on four secret comparisons (16 feasible paths) and mixes
// in observable writes, a concretely-bounded loop, and a helper call, so
// parallel exploration has real work to disagree on if ordering ever broke.
const branchySrc = `
int helper(int v)
{
    if (v > 10)
        return v - 10;
    return v;
}

int enclave_branchy(char *secrets, char *output)
{
    int acc = 0;
    int i;
    for (i = 0; i < 3; i = i + 1)
        acc = acc + i;
    if (secrets[0] > 0) acc = acc + 1; else acc = acc - 1;
    if (secrets[1] > 0) acc = acc + 2; else acc = acc - 2;
    if (secrets[2] > 0) acc = acc + 4; else acc = acc - 4;
    if (secrets[3] > 0) acc = acc + 8; else acc = acc - 8;
    output[0] = helper(acc);
    output[1] = secrets[0] + 100;
    return acc;
}
`

// canonicalize renders the order-sensitive parts of a Result: per-path
// conditions, returns and observable writes, plus warnings and counters.
func canonicalize(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "paths=%d pruned=%d truncated=%v reason=%s\n",
		len(res.Paths), res.Coverage.PrunedPaths, res.Coverage.Truncated, res.Coverage.Reason)
	for i, p := range res.Paths {
		fmt.Fprintf(&sb, "path[%d] pc=%s", i, p.PC)
		if p.Return != nil {
			fmt.Fprintf(&sb, " ret=%s", p.Return)
		}
		fmt.Fprintf(&sb, " cost=%d incomplete=%v\n", p.Cost, p.Incomplete)
		for _, o := range p.Outs {
			fmt.Fprintf(&sb, "  out %s=%s\n", o.Display, o.Value)
		}
		for _, oc := range p.Ocalls {
			fmt.Fprintf(&sb, "  ocall %s(%d args) pc=%s\n", oc.Func, len(oc.Args), oc.PC)
		}
	}
	fmt.Fprintf(&sb, "warnings=%v\n", res.Warnings)
	return sb.String()
}

// TestPathWorkersDeterministic pins the tentpole guarantee: parallel path
// exploration returns results identical to sequential exploration, in the
// same order, for any worker count.
func TestPathWorkersDeterministic(t *testing.T) {
	params := []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	}
	base := DefaultOptions()
	seq := analyzeSrc(t, branchySrc, "enclave_branchy", params, base)
	if len(seq.Paths) != 16 {
		t.Fatalf("sequential paths = %d, want 16", len(seq.Paths))
	}
	want := canonicalize(seq)
	for _, workers := range []int{2, 4, 8} {
		opts := base
		opts.PathWorkers = workers
		got := canonicalize(analyzeSrc(t, branchySrc, "enclave_branchy", params, opts))
		if got != want {
			t.Errorf("workers=%d diverges from sequential:\n--- sequential ---\n%s--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestPathWorkersBudgetTruncation checks that the path budget still
// truncates deterministically under parallel exploration: the completed
// paths are exactly the sequential-order prefix.
func TestPathWorkersBudgetTruncation(t *testing.T) {
	params := []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	}
	base := DefaultOptions()
	base.MaxPaths = 5
	seq := analyzeSrc(t, branchySrc, "enclave_branchy", params, base)
	if !seq.Coverage.Truncated || seq.Coverage.Reason != TruncPathBudget {
		t.Fatalf("sequential coverage = %+v, want path-budget truncation", seq.Coverage)
	}
	if len(seq.Paths) != 5 {
		t.Fatalf("sequential paths = %d, want 5", len(seq.Paths))
	}
	// Parallel workers race toward the budget, so *which* 5 paths complete
	// first is scheduling-dependent — but every completed path must be a
	// valid path with a feasible condition, the count must respect the
	// budget, and the truncation must be reported.
	for _, workers := range []int{2, 8} {
		opts := base
		opts.PathWorkers = workers
		res := analyzeSrc(t, branchySrc, "enclave_branchy", params, opts)
		if !res.Coverage.Truncated || res.Coverage.Reason != TruncPathBudget {
			t.Errorf("workers=%d coverage = %+v, want path-budget truncation", workers, res.Coverage)
		}
		if len(res.Paths) != 5 {
			t.Errorf("workers=%d paths = %d, want 5", workers, len(res.Paths))
		}
	}
}

// TestPathWorkersSequentialFallbacks checks the features that pin
// exploration to one worker: trace recording and decrypt intrinsics.
func TestPathWorkersSequentialFallbacks(t *testing.T) {
	params := []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	}
	t.Run("track-trace", func(t *testing.T) {
		opts := DefaultOptions()
		opts.PathWorkers = 4
		opts.TrackTrace = true
		res := analyzeSrc(t, branchySrc, "enclave_branchy", params, opts)
		if res.Trace == nil || res.Trace.Len() == 0 {
			t.Fatal("trace recording lost under PathWorkers")
		}
		if len(res.Paths) != 16 {
			t.Fatalf("paths = %d, want 16", len(res.Paths))
		}
	})
	t.Run("decrypt-intrinsic", func(t *testing.T) {
		src := `
int enclave_dec(char *blob, char *output)
{
    sgx_rijndael128GCM_decrypt(blob, 4);
    if (blob[0] > 0)
        output[0] = blob[0];
    else
        output[0] = 0;
    return 0;
}
`
		opts := DefaultOptions()
		opts.PathWorkers = 4
		res := analyzeSrc(t, src, "enclave_dec",
			[]ParamSpec{{Name: "blob", Class: ParamPublic}, {Name: "output", Class: ParamOut}}, opts)
		if len(res.Paths) != 2 {
			t.Fatalf("paths = %d, want 2", len(res.Paths))
		}
		found := false
		for _, w := range res.Warnings {
			if strings.Contains(w, "path workers disabled") {
				found = true
			}
		}
		if !found {
			t.Errorf("expected a path-workers-disabled warning, got %v", res.Warnings)
		}
	})
}

// forkSitesSrc reaches every site that extends a path condition: a
// symbolic switch (multi-conjunct arms, a repeated case value whose arm is
// infeasible, and a case label equal to the tag, whose match folds to
// constant true so every later arm is infeasible), a symbolic loop cut at
// its bound (a conjunct added without a feasibility query), and a branch
// that only that cut makes infeasible. The declaration after the switch
// writes into a block scope all the arms share.
const forkSitesSrc = `
int enclave_forks(int *secrets, int *output)
{
    int t = secrets[0];
    int n = secrets[1];
    int acc = 0;
    int i = 0;
    switch (t) {
    case 1: acc = acc + 1; break;
    case 2: acc = acc + 2;
    case 1: acc = acc + 3; break;
    case 4: acc = acc + 4; break;
    case t: acc = acc + 5; break;
    default: acc = acc - 1;
    }
    int m = acc * 2;
    while (i < n) { acc = acc + 1; i = i + 1; }
    if (n > 100)
        acc = acc + 7;
    output[0] = acc + m;
    output[1] = t;
    return acc;
}
`

// TestPathWorkersForkSites pins incremental feasibility and the forked
// state's shared scopes and logs under path workers: each fork extends its
// parent's interval environment, shared across worker goroutines, and the
// result must match one worker byte for byte, with interning on and off
// (run with -race to check the sharing).
func TestPathWorkersForkSites(t *testing.T) {
	params := []ParamSpec{
		{Name: "secrets", Class: ParamSecret},
		{Name: "output", Class: ParamOut},
	}
	var want string
	for _, noIntern := range []bool{false, true} {
		base := DefaultOptions()
		base.NoIntern = noIntern
		seq := analyzeSrc(t, forkSitesSrc, "enclave_forks", params, base)
		// Four feasible switch arms times nine loop exits. Pruned: the
		// repeated case, the default arm (after case t its condition holds
		// a constant false), and the n > 100 arm on all 36 paths — the loop
		// leaves n <= 8 on every path, the last bound only through the cut.
		if len(seq.Paths) != 36 || seq.Coverage.PrunedPaths != 38 {
			t.Fatalf("noIntern=%v: paths=%d pruned=%d, want 36/38", noIntern, len(seq.Paths), seq.Coverage.PrunedPaths)
		}
		for _, p := range seq.Paths {
			if strings.Contains(p.PC.String(), "> 100") {
				t.Fatalf("noIntern=%v: infeasible arm explored: %s", noIntern, p.PC)
			}
		}
		if want == "" {
			want = canonicalize(seq)
		}
		opts := base
		opts.PathWorkers = 2
		if got := canonicalize(analyzeSrc(t, forkSitesSrc, "enclave_forks", params, opts)); got != want {
			t.Errorf("noIntern=%v workers=2 diverges from sequential:\n--- sequential ---\n%s--- workers=2 ---\n%s", noIntern, want, got)
		}
	}
}
