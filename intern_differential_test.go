package privacyscope

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacyscope/internal/mlsuite"
)

// This file is the interning differential gate (`make intern-smoke`): the
// hash-consing arena is a pure representation change, so interning on (the
// default) and off must produce byte-identical reports — findings,
// witnesses, verdicts, exploration accounting, warnings, and the rendered
// JSON envelope — over every corpus the repo ships, and the identity must
// be jobs-invariant (the same bytes under ECALL parallelism and path
// workers). Run under -race because the arena is shared across path-worker
// goroutines.

// internJSONEnvelope renders the report as its JSON envelope with the one
// wall-clock field (per-function Duration) zeroed, so two runs can be
// required to match byte for byte.
func internJSONEnvelope(t *testing.T, rep *EnclaveReport) string {
	t.Helper()
	clean := &EnclaveReport{Reports: make([]*Report, len(rep.Reports))}
	for i, r := range rep.Reports {
		cp := *r
		cp.Duration = 0
		clean.Reports[i] = &cp
	}
	b, err := json.MarshalIndent(clean, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireInternIdentical analyzes one module with interning on (default),
// off, and both again under ECALL parallelism, and requires all four
// renderings — the strict canonical form and the JSON envelope — to agree
// byte for byte with the default run.
func requireInternIdentical(t *testing.T, cSrc, edlSrc string, extra ...Option) {
	t.Helper()
	configs := []struct {
		name string
		opts []Option
	}{
		{"intern-off", []Option{WithInterning(false)}},
		{"intern-on+jobs=4", []Option{WithParallelism(4)}},
		{"intern-off+jobs=4", []Option{WithInterning(false), WithParallelism(4)}},
	}
	base, err := AnalyzeEnclave(cSrc, edlSrc, extra...)
	if err != nil {
		t.Fatal(err)
	}
	wantCanon := summaryCanonical(base)
	wantJSON := internJSONEnvelope(t, base)
	for _, cfg := range configs {
		rep, err := AnalyzeEnclave(cSrc, edlSrc, append(append([]Option(nil), cfg.opts...), extra...)...)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if got := summaryCanonical(rep); got != wantCanon {
			t.Errorf("%s diverges from interning-on default:\n--- default ---\n%s--- %s ---\n%s",
				cfg.name, wantCanon, cfg.name, got)
		}
		if got := internJSONEnvelope(t, rep); got != wantJSON {
			t.Errorf("%s JSON envelope diverges from interning-on default:\n--- default ---\n%s\n--- %s ---\n%s",
				cfg.name, wantJSON, cfg.name, got)
		}
	}
}

// TestInternDifferentialMLSuite runs the full ML evaluation corpus (Table V
// modules, the extension modules, and the malicious variants) with
// interning on and off.
func TestInternDifferentialMLSuite(t *testing.T) {
	type target struct {
		name   string
		c, edl string
	}
	var targets []target
	for _, m := range append(mlsuite.Modules(), mlsuite.ExtensionModules()...) {
		targets = append(targets, target{name: m.Name, c: m.C, edl: m.EDL})
	}
	targets = append(targets,
		target{name: "evil-linreg", c: mlsuite.MaliciousLinRegC, edl: mlsuite.MaliciousLinRegEDL},
		target{name: "evil-kmeans", c: mlsuite.MaliciousKmeansC, edl: mlsuite.MaliciousKmeansEDL},
		target{name: "fixed-recommender", c: mlsuite.FixedRecommenderC, edl: mlsuite.FixedRecommenderEDL},
	)
	for _, tgt := range targets {
		t.Run(tgt.name, func(t *testing.T) {
			requireInternIdentical(t, tgt.c, tgt.edl)
		})
	}
}

// TestInternDifferentialExamples walks every .c/.edl unit under
// examples/project and examples/leakpacks through both interning modes.
func TestInternDifferentialExamples(t *testing.T) {
	var units []string
	for _, root := range []string{
		filepath.Join("examples", "project"),
		filepath.Join("examples", "leakpacks"),
	} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".c") {
				units = append(units, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(units) < 15 {
		t.Fatalf("found %d corpus units, want at least 15", len(units))
	}
	for _, cPath := range units {
		edlPath := strings.TrimSuffix(cPath, ".c") + ".edl"
		name := filepath.ToSlash(strings.TrimPrefix(cPath, "examples"+string(filepath.Separator)))
		t.Run(name, func(t *testing.T) {
			cSrc, err := os.ReadFile(cPath)
			if err != nil {
				t.Fatal(err)
			}
			edlSrc, err := os.ReadFile(edlPath)
			if err != nil {
				t.Fatal(err)
			}
			requireInternIdentical(t, string(cSrc), string(edlSrc))
		})
	}
}

// TestInternDifferentialSectionIV replays the §IV differential-stack MiniC
// programs with interning off: same findings, same inversion parameters,
// same verdicts as the interning-on default — including the infeasible
// branch case where the interned canonical path condition feeds the
// solver's feasibility check.
func TestInternDifferentialSectionIV(t *testing.T) {
	cases := []struct {
		name, fn, src string
		opts          []Option
	}{
		{"insecure", "leak", `
int leak(char *secrets, char *output)
{
    output[0] = secrets[0] + 4;
    return 0;
}
`, nil},
		{"secure-masked", "masked", `
int masked(char *secrets, char *output)
{
    output[0] = secrets[0] + 4 + secrets[1];
    return 0;
}
`, nil},
		{"example2-feasible", "example2", `
int example2(char *secrets, char *output)
{
    int h = 2 * secrets[0];
    if (h - 5 == 15)
        output[0] = 0;
    else
        output[0] = 1;
    return 0;
}
`, nil},
		{"example2-infeasible", "example2", `
int example2(char *secrets, char *output)
{
    int h = 2 * secrets[0];
    if (h - 5 == 14)
        output[0] = 0;
    else
        output[0] = 1;
    return 0;
}
`, []Option{WithoutPruning()}},
		// The leak routed through pure helpers: summary skeleton replay
		// must intern through the same arena (InstantiateIn), and the
		// exact +4 inversion must survive either way.
		{"insecure-through-helpers", "leak", `
int twice(int x) { return 2 * x; }
int add4(int x) { return x + 4; }
int leak(char *secrets, char *output)
{
    output[0] = add4(secrets[0]);
    output[1] = twice(add4(secrets[1]));
    return 0;
}
`, []Option{WithSummaries()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			on := analyzeCSrc(t, tc.src, tc.fn, tc.opts...)
			off := analyzeCSrc(t, tc.src, tc.fn, append([]Option{WithInterning(false)}, tc.opts...)...)
			want, got := canonicalFunctionReport(on), canonicalFunctionReport(off)
			if got != want {
				t.Errorf("interning off diverges:\n--- intern-on ---\n%s--- intern-off ---\n%s", want, got)
			}
			for i := range on.Findings {
				wi, gi := on.Findings[i].Inversion, off.Findings[i].Inversion
				if (wi == nil) != (gi == nil) {
					t.Fatalf("finding %d inversion presence diverges: on=%v off=%v", i, wi, gi)
				}
				if wi != nil && (wi.Exact != gi.Exact || wi.Scale != gi.Scale || wi.Offset != gi.Offset) {
					t.Errorf("finding %d inversion diverges: on=%+v off=%+v", i, wi, gi)
				}
			}
		})
	}
}

// TestInternSharedTableUnderPathWorkers is the race-coverage satellite: one
// intern arena per engine, shared read-only across WithPathWorkers(8)
// goroutines, with summaries enabled so skeleton replay interns through the
// same table concurrently. The module fans out 2^10 paths across helper
// calls; the run must stay byte-identical to the sequential interning-off
// baseline. Run under -race by make intern-smoke.
func TestInternSharedTableUnderPathWorkers(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("int step(int x) { return 2 * x + 1; }\n")
	sb.WriteString("int fanout(char *secrets, char *output)\n{\n    int acc = 0;\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "    if (secrets[%d] > 0) acc = acc + step(acc); else acc = acc - 1;\n", i)
	}
	sb.WriteString("    output[0] = 7;\n    return 0;\n}\n")
	cSrc := sb.String()
	edlSrc := `
enclave {
    trusted {
        public int fanout([in] char *secrets, [out] char *output);
    };
};
`
	base, err := AnalyzeEnclave(cSrc, edlSrc, WithInterning(false))
	if err != nil {
		t.Fatal(err)
	}
	want := summaryCanonical(base)
	for round := 0; round < 3; round++ {
		rep, err := AnalyzeEnclave(cSrc, edlSrc, WithSummaries(), WithPathWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		if got := summaryCanonical(rep); got != want {
			t.Fatalf("round %d: shared-arena run diverges from sequential interning-off baseline:\n--- baseline ---\n%s--- workers=8 ---\n%s",
				round, want, got)
		}
	}
}
