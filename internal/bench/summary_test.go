package bench

import "testing"

// TestSummaryBenchShape pins the call-graph study's acceptance: both
// configurations agree with the inline oracle (SummaryBench errors on
// divergence), every helper is summarized exactly once, and the summary run
// does at most half the inline run's work on the call-graph-heavy module —
// the headline number of the compositional-analysis study.
func TestSummaryBenchShape(t *testing.T) {
	rows, err := SummaryBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.SummariesComputed != int64(r.Helpers) {
			t.Errorf("%s: computed %d summaries, want one per helper (%d)",
				r.Name, r.SummariesComputed, r.Helpers)
		}
		if r.Findings == 0 {
			t.Errorf("%s: no findings — the secret chain should leak", r.Name)
		}
		if r.Paths < 2*r.Entries {
			t.Errorf("%s: %d paths over %d entries, want the secret branch to fork", r.Name, r.Paths, r.Entries)
		}
	}
	// The shared-helpers configuration is the acceptance row: three entry
	// points re-inline the same doubling chain on every path, while the
	// summary run pays the chain once. The bar is on heap allocations, a
	// work measure that, unlike wall-clock time, does not depend on what
	// else the host is running.
	shared := rows[1]
	ratio := float64(shared.InlineAllocs) / float64(shared.SummaryAllocs)
	t.Logf("shared-helpers allocations: inline %d, summary %d (%.2fx)", shared.InlineAllocs, shared.SummaryAllocs, ratio)
	if ratio < 2 {
		t.Errorf("shared-helpers inline/summary allocation ratio %.2fx < 2x (inline %d, summary %d)",
			ratio, shared.InlineAllocs, shared.SummaryAllocs)
	}
}
