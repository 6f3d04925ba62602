package main

import (
	"io/fs"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"privacyscope"
	"privacyscope/internal/diskcache"
	"privacyscope/internal/edl"
	"privacyscope/internal/ir"
	"privacyscope/internal/minic"
)

// layers accumulates the per-layer measurements of a traced phase. The
// benchmark adds no tracing inside the program: it reads the spans and
// counters the program already emits into m, times its own calls into
// exported front-end and batch functions, and times the disk cache's
// filesystem calls through the diskcache.Config.FS seam.
type layers struct {
	m *privacyscope.Metrics

	ops                      int
	opWall                   time.Duration // Σ wall time of the traced ops
	allocBytes, allocObjects uint64        // Σ heap allocations inside the traced ops

	// Own calls into the front end, made after each op on the op's inputs.
	parse, check, edlParse, config, lower time.Duration
	irOps                                 int64

	// Own calls into the batch layer: Discover is part of the op (the CLI
	// calls it before batch.Run); UnitKey is repeated after the op for
	// every unit, since batch.Run computes the keys internally.
	discover, key time.Duration

	// Disk-cache filesystem time (ns), split by which cache call issues
	// it: reads and recency refreshes serve Get; writes, renames, the
	// eviction scan and removals serve Put.
	fsGet, fsPut atomic.Int64
	entries      int64 // Σ cache entry count after each op
}

func newLayers() *layers { return &layers{m: privacyscope.NewMetrics()} }

// frontEnd times the front-end stages the facade runs on one unit: the
// MiniC parse, the EDL parse, the semantic check (module mode only, as in
// the facade), the rule file and the IR lowering.
func (l *layers) frontEnd(src, edlSrc, rules string) error {
	t := time.Now()
	file, err := minic.Parse(src)
	l.parse += time.Since(t)
	if err != nil {
		return err
	}
	if edlSrc != "" {
		t = time.Now()
		iface, err := edl.Parse(edlSrc)
		l.edlParse += time.Since(t)
		if err != nil {
			return err
		}
		builtins := append(append([]string(nil), minic.DefaultBuiltins...), iface.OCallNames()...)
		t = time.Now()
		err = minic.NewChecker(builtins).Check(file)
		l.check += time.Since(t)
		if err != nil {
			return err
		}
	}
	if rules != "" {
		t = time.Now()
		_, err := edl.ParseConfig([]byte(rules))
		l.config += time.Since(t)
		if err != nil {
			return err
		}
	}
	t = time.Now()
	prog := ir.LowerMiniC(file)
	l.lower += time.Since(t)
	for _, fn := range prog.Funcs {
		l.irOps += countOps(fn.Body)
	}
	return nil
}

// countOps counts the IR operations under op, op included.
func countOps(op ir.Op) int64 {
	switch o := op.(type) {
	case nil:
		return 0
	case *ir.BlockOp:
		if o == nil {
			return 0
		}
		n := int64(1)
		for _, c := range o.Ops {
			n += countOps(c)
		}
		return n
	case *ir.IfOp:
		return 1 + countOps(o.Then) + countOps(o.Else)
	case *ir.LoopOp:
		return 1 + countOps(o.Init) + countOps(o.Body)
	case *ir.SwitchOp:
		n := int64(1)
		for _, c := range o.Cases {
			for _, b := range c.Body {
				n += countOps(b)
			}
		}
		return n
	default:
		return 1
	}
}

// timedFS wraps the cache's filesystem and charges each call's duration to
// the Get or the Put side.
type timedFS struct {
	inner diskcache.FS
	l     *layers
}

func (f timedFS) charge(put bool, t time.Time) {
	if put {
		f.l.fsPut.Add(int64(time.Since(t)))
	} else {
		f.l.fsGet.Add(int64(time.Since(t)))
	}
}

func (f timedFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	defer f.charge(false, time.Now())
	return f.inner.ReadFile(name)
}

func (f timedFS) Chtimes(name string, atime, mtime time.Time) error {
	defer f.charge(false, time.Now())
	return f.inner.Chtimes(name, atime, mtime)
}

func (f timedFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	defer f.charge(true, time.Now())
	return f.inner.WriteFile(name, data, perm)
}

func (f timedFS) Rename(oldpath, newpath string) error {
	defer f.charge(true, time.Now())
	return f.inner.Rename(oldpath, newpath)
}

// Remove serves Put's eviction, and Get only for a corrupt entry, which
// this benchmark never writes.
func (f timedFS) Remove(name string) error {
	defer f.charge(true, time.Now())
	return f.inner.Remove(name)
}

// ReadDir is Put's eviction scan; the scan also stats every entry, so the
// entries are wrapped to charge Info to the same side.
func (f timedFS) ReadDir(name string) ([]fs.DirEntry, error) {
	defer f.charge(true, time.Now())
	des, err := f.inner.ReadDir(name)
	for i, de := range des {
		des[i] = timedEntry{DirEntry: de, fs: f}
	}
	return des, err
}

type timedEntry struct {
	fs.DirEntry
	fs timedFS
}

func (e timedEntry) Info() (fs.FileInfo, error) {
	defer e.fs.charge(true, time.Now())
	return e.DirEntry.Info()
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of a traced phase. untraced is the
// untraced phase of the same run: it supplies the GC figures and the base
// of the tracing overhead.
func perLayer(l *layers, traced, untraced *phase) map[string]metricValue {
	snap := l.m.Snapshot()
	ops := float64(l.ops)
	per := func(v float64) float64 { return ratio(v, ops) }
	counter := func(name string) float64 { return float64(snap.Counters[name]) }
	span := func(name string) float64 { return float64(snap.Spans[name].TotalNanos) / 1e6 }
	prefixed := func(prefix string) (sum float64) {
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, prefix) {
				sum += float64(v)
			}
		}
		return sum
	}
	// Self time: the span minus the child spans nested under its name.
	self := func(name string) float64 {
		v := span(name)
		for child, st := range snap.Spans {
			if rest, ok := strings.CutPrefix(child, name+"/"); ok && !strings.Contains(rest, "/") {
				v -= float64(st.TotalNanos) / 1e6
			}
		}
		return v
	}

	paths := counter("symexec.paths.completed")
	interned := counter("intern.hits") + counter("intern.misses")
	solverProbes := counter("solver.cache.hits") + counter("solver.cache.misses")
	gets := counter("diskcache.hits") + counter("diskcache.misses")
	internSize := snap.Dists["intern.size"]

	// Covered time: the facade's parse and check spans and the summary
	// build cover the analysis; in batch mode the discovery, the unit keys
	// and the cache's filesystem calls cover the batch layer, and the base is
	// the pool workers' busy time rather than the op's wall time.
	covered := span("parse") + span("check") + span("summary/build")
	base := ms(l.opWall)
	if units := span("batch/unit"); units > 0 {
		covered += ms(l.discover) + ms(l.key) + float64(l.fsGet.Load()+l.fsPut.Load())/1e6
		base = ms(l.discover) + units
	}

	out := map[string]metricValue{
		"minic.parse_ms": {per(ms(l.parse)), "ms"},
		"minic.check_ms": {per(ms(l.check)), "ms"},
		"edl.parse_ms":   {per(ms(l.edlParse)), "ms"},
		"edl.config_ms":  {per(ms(l.config)), "ms"},
		"ir.lower_ms":    {per(ms(l.lower)), "ms"},
		"ir.ops":         {per(float64(l.irOps)), "count"},

		"symexec.self_ms":           {per(self("check/symexec")), "ms"},
		"symexec.states":            {per(counter("symexec.states")), "count"},
		"symexec.steps":             {per(counter("symexec.steps")), "count"},
		"symexec.forks":             {per(counter("symexec.forks")), "count"},
		"symexec.paths":             {per(paths), "count"},
		"symexec.pruned":            {per(counter("symexec.paths.pruned")), "count"},
		"symexec.truncated":         {per(prefixed("symexec.truncations.")), "count"},
		"symexec.allocs_per_path":   {ratio(float64(l.allocObjects), paths), "count"},
		"symexec.alloc_kb_per_path": {ratio(float64(l.allocBytes)/1024, paths), "KiB"},
		"sym.intern_hit_ratio":      {ratio(counter("intern.hits"), interned), "ratio"},
		"sym.intern_size":           {ratio(float64(internSize.Sum), float64(internSize.Count)), "count"},

		"solver.queries":          {per(counter("solver.queries")), "count"},
		"solver.queries_per_path": {ratio(counter("solver.queries"), paths), "count"},
		"solver.cache_hit_ratio":  {ratio(counter("solver.cache.hits"), solverProbes), "ratio"},

		"summary.build_ms": {per(span("summary/build")), "ms"},

		"core.witness_ms":      {per(span("check/witness")), "ms"},
		"core.witness_replays": {per(counter("core.witness.replays")), "count"},
		"detect.findings":      {per(prefixed("core.findings.")), "count"},

		"batch.discover_ms":     {per(ms(l.discover)), "ms"},
		"batch.key_ms":          {per(ms(l.key)), "ms"},
		"batch.unit_ms":         {per(span("batch/unit")), "ms"},
		"batch.units_analyzed":  {per(counter("batch.units.analyzed")), "count"},
		"batch.units_cached":    {per(counter("batch.units.cached")), "count"},
		"diskcache.get_us":      {ratio(float64(l.fsGet.Load())/1e3, gets), "us"},
		"diskcache.put_us":      {ratio(float64(l.fsPut.Load())/1e3, counter("diskcache.puts")), "us"},
		"diskcache.entries":     {per(float64(l.entries)), "count"},
		"diskcache.hit_ratio":   {ratio(counter("diskcache.hits"), gets), "ratio"},
		"gc.cpu_share":          {ratio(untraced.rt.gcCPU, untraced.rt.totalCPU), "ratio"},
		"gc.cycles_per_verdict": {ratio(float64(untraced.rt.gcCycles), float64(untraced.verdicts)), "count"},

		"trace.overhead_ratio":     {ratio(median(traced.opCPU), median(untraced.opCPU)), "ratio"},
		"trace.unattributed_share": {max(0, 1-ratio(covered, base)), "ratio"},
	}
	for _, d := range detectorNames {
		out["detect."+d+"_ms"] = metricValue{per(span("check/" + d)), "ms"}
	}
	return out
}
