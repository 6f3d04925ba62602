package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"privacyscope"
	"privacyscope/internal/batch"
	"privacyscope/internal/diskcache"
)

// Project tree shape: projectUnits units spread over projectDirs
// directories. A warm rerun reads every unit and its cache entry, so the
// unit count sets the rerun's cost.
const (
	projectUnits = 240
	projectDirs  = 12
	// projectJobs is batch mode's worker count: one per CPU of a 2-CPU host.
	projectJobs = 2
	// editBase starts the edit constants above every constant set-up
	// draws, so each edit produces a source no earlier op produced.
	editBase = 1_000_000
)

// unitKind is one entry-point template of the generated project, modelled
// on the examples/project units. Each template holds one integer constant
// K that edits rewrite; no value of K changes the verdict.
type unitKind struct {
	fn   string
	decl string // EDL trusted declaration
	src  string // C body with %d for K
	want outcome
}

var unitKinds = []unitKind{
	{
		// Branches on a secret and writes distinguishable constants.
		fn: "gate_check", decl: "public int gate_check([in] int *secrets, [out] int *output);",
		src:  "int gate_check(int *secrets, int *output)\n{\n    if (secrets[0] == %d) {\n        output[0] = 1;\n    } else {\n        output[0] = 0;\n    }\n    return 0;\n}\n",
		want: outcome{verdict: "findings", rules: map[string]int{"PS-IMPL": 1}},
	},
	{
		// Exports a secret with a constant offset, which inverts.
		fn: "vault_export", decl: "public int vault_export([in] int *secrets, [out] int *output);",
		src:  "int vault_export(int *secrets, int *output)\n{\n    output[0] = secrets[0] + %d;\n    return 0;\n}\n",
		want: outcome{verdict: "findings", rules: map[string]int{"PS-EXPL": 1}},
	},
	{
		// Sums three secrets: each masks the others.
		fn: "mask_sum", decl: "public int mask_sum([in] int *secrets, [out] int *output);",
		src:  "int mask_sum(int *secrets, int *output)\n{\n    output[0] = secrets[0] + secrets[1] + secrets[2] + %d;\n    return 0;\n}\n",
		want: outcome{verdict: "secure", rules: map[string]int{}},
	},
	{
		// Overwrites a secret read before anything observable happens.
		fn: "sanitize", decl: "public int sanitize([in] int *secrets, [out] int *output);",
		src:  "int sanitize(int *secrets, int *output)\n{\n    int t = secrets[0];\n    t = %d;\n    output[0] = t;\n    return 0;\n}\n",
		want: outcome{verdict: "secure", rules: map[string]int{}},
	},
	{
		// Writes a constant.
		fn: "stats_count", decl: "public int stats_count([in] int *secrets, [out] int *output);",
		src:  "int stats_count(int *secrets, int *output)\n{\n    output[0] = %d;\n    return 0;\n}\n",
		want: outcome{verdict: "secure", rules: map[string]int{}},
	},
	{
		// Hands a shifted secret to an OCALL, whose arguments are observable.
		fn: "log_reading", decl: "public int log_reading([in] int *secrets);",
		src:  "int log_reading(int *secrets)\n{\n    ocall_log(secrets[0] + %d);\n    return 0;\n}\n",
		want: outcome{verdict: "findings", rules: map[string]int{"PS-EXPL": 1}},
	},
	{
		// The paper's Listing 1: an explicit leak through the offset chain
		// and an implicit one through the branch on secrets[1].
		fn: "process_data", decl: "public int process_data([in] int *secrets, [out] int *output);",
		src:  "int process_data(int *secrets, int *output)\n{\n    int temporary = secrets[0] + %d;\n    output[0] = temporary + 1;\n    if (secrets[1] == 0)\n        return 0;\n    else\n        return 1;\n}\n",
		want: outcome{verdict: "findings", rules: map[string]int{"PS-EXPL": 1, "PS-IMPL": 1}},
	},
}

// projectWant is every unit's expected outcome: each unit holds every kind.
var projectWant = func() moduleOutcome {
	want := moduleOutcome{}
	for _, k := range unitKinds {
		want[k.fn] = k.want
	}
	return want
}()

// projUnit is one generated unit: its kinds in a seeded order, with one
// constant per kind.
type projUnit struct {
	rel    string // path under the tree root, without extension
	order  []int  // kind indices in source order
	consts []int  // K per kind index
}

func (u *projUnit) source() string {
	var sb strings.Builder
	for _, k := range u.order {
		fmt.Fprintf(&sb, unitKinds[k].src, u.consts[k])
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (u *projUnit) edl() string {
	var sb strings.Builder
	sb.WriteString("enclave {\n    trusted {\n")
	for _, k := range u.order {
		sb.WriteString("        " + unitKinds[k].decl + "\n")
	}
	sb.WriteString("    };\n    untrusted {\n        void ocall_log(int value);\n    };\n};\n")
	return sb.String()
}

// projectEdit is op i's edit: rewrite one kind's constant in one unit.
type projectEdit struct{ unit, kind int }

// project is the incremental CI workload: batch.Run with two jobs over a
// generated project tree and a disk cache. The cold run is set-up; an op
// is one seeded edit to a single unit followed by a warm rerun (discovery
// plus batch.Run, as the CLI's -dir mode does), so each op reads every
// other unit from the cache and writes exactly one entry.
type project struct {
	root, cacheDir string
	units          []*projUnit
	byName         map[string]int
	edits          []projectEdit
	cache          *diskcache.Cache
	traced         *diskcache.Cache // the traced phase's handle, see cacheFor
	maxBytes       int64
	last           *batch.ProjectReport
	hash           string
}

// projectEdits is how many seeded edits set-up draws; ops cycle through
// them with ever-new constants.
const projectEdits = 1024

func newProject(e env) (workload, error) {
	p := &project{
		root:     filepath.Join(e.work, "tree"),
		cacheDir: filepath.Join(e.work, "cache"),
		byName:   map[string]int{},
	}
	rng := newRand(e.seed, "project-rerun")
	h := newInputHasher()
	for i := 0; i < projectUnits; i++ {
		u := &projUnit{
			rel:   fmt.Sprintf("svc%02d/unit%03d", i%projectDirs, i),
			order: rng.Perm(len(unitKinds)),
		}
		for range unitKinds {
			u.consts = append(u.consts, 1+rng.Intn(editBase-1))
		}
		if err := p.write(u, true); err != nil {
			return nil, err
		}
		p.byName[u.rel] = i
		p.units = append(p.units, u)
		h.add(u.rel, u.source(), u.edl())
	}
	for i := 0; i < projectEdits; i++ {
		ed := projectEdit{unit: rng.Intn(projectUnits), kind: rng.Intn(len(unitKinds))}
		p.edits = append(p.edits, ed)
		h.add(fmt.Sprint(ed))
	}
	p.hash = h.sum()
	var err error
	// The cold run fills the cache without a size cap; prepare(1) then
	// bounds it (see boundCache).
	p.cache, err = diskcache.Open(diskcache.Config{Dir: p.cacheDir})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// write materialises a unit; withEDL is false for an edit, which only
// touches the source file.
func (p *project) write(u *projUnit, withEDL bool) error {
	base := filepath.Join(p.root, filepath.FromSlash(u.rel))
	if withEDL {
		if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(base+".edl", []byte(u.edl()), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".c", []byte(u.source()), 0o644)
}

// boundCache caps the cache once the cold run has filled it. Every edit
// adds an entry and leaves its unit's previous entry stale; the default
// 256 MiB cap would let the directory, which Put rescans on every call,
// grow without bound. The cap leaves room for the live entries plus three
// of the largest, so the mtime-LRU eviction only ever removes entries
// that went stale at least one op earlier: every live entry is read, and
// its mtime refreshed, on every rerun.
func (p *project) boundCache() error {
	des, err := os.ReadDir(p.cacheDir)
	if err != nil {
		return err
	}
	var total, largest int64
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		largest = max(largest, info.Size())
	}
	p.maxBytes = total + 3*largest
	p.cache, err = diskcache.Open(diskcache.Config{Dir: p.cacheDir, MaxBytes: p.maxBytes})
	return err
}

func (p *project) prepare(i int) error {
	if i == 0 {
		return nil
	}
	if p.maxBytes == 0 {
		if err := p.boundCache(); err != nil {
			return err
		}
	}
	ed := p.edits[(i-1)%len(p.edits)]
	u := p.units[ed.unit]
	u.consts[ed.kind] = editBase + i
	return p.write(u, false)
}

// cacheFor returns the cache an op uses: in the traced phase (a run has at
// most one), the same directory opened through the timing filesystem with
// the phase's observer.
func (p *project) cacheFor(l *layers) (*diskcache.Cache, error) {
	if l == nil {
		return p.cache, nil
	}
	if p.traced == nil {
		c, err := diskcache.Open(diskcache.Config{
			Dir: p.cacheDir, MaxBytes: p.maxBytes,
			FS: timedFS{inner: diskcache.OSFS(), l: l}, Observer: l.m,
		})
		if err != nil {
			return nil, err
		}
		p.traced = c
	}
	return p.traced, nil
}

type projectResult struct {
	rep *batch.ProjectReport
	err error
}

func (p *project) exec(_ int, l *layers) any {
	cache, err := p.cacheFor(l)
	if err != nil {
		return projectResult{err: err}
	}
	cfg := batch.Config{Jobs: projectJobs, Cache: cache}
	if l != nil {
		cfg.Observer = l.m
	}
	t := time.Now()
	units, err := batch.Discover(p.root)
	if l != nil {
		l.discover += time.Since(t)
	}
	if err != nil {
		return projectResult{err: err}
	}
	p.last = batch.Run(context.Background(), p.root, units, cfg)
	return projectResult{rep: p.last}
}

func (p *project) check(_ int, out any) (int, string) {
	r := out.(projectResult)
	if r.err != nil {
		return 0, r.err.Error()
	}
	if len(r.rep.Units) != len(p.units) {
		return len(r.rep.Units), fmt.Sprintf("%d units, want %d", len(r.rep.Units), len(p.units))
	}
	var bad []string
	for _, ur := range r.rep.Units {
		if _, ok := p.byName[ur.Unit.Name]; !ok {
			bad = append(bad, ur.Unit.Name+": not generated")
			continue
		}
		if ur.Err != "" {
			bad = append(bad, ur.Unit.Name+": "+ur.Err)
			continue
		}
		if d := projectWant.diff(fromEnvelope(ur.Envelope)); d != "" {
			bad = append(bad, ur.Unit.Name+": "+d)
		}
	}
	return len(r.rep.Units), strings.Join(bad, "; ")
}

// probe times the unit keys batch.Run computed, and the front end of the
// units it analysed, and samples the cache's entry count.
func (p *project) probe(_ int, l *layers) error {
	t := time.Now()
	for _, ur := range p.last.Units {
		batch.UnitKey(ur.Unit, ur.Unit.Rules, privacyscope.AnalysisOptions{})
	}
	l.key += time.Since(t)
	for _, ur := range p.last.Units {
		if !ur.Cached {
			if err := l.frontEnd(ur.Unit.Source, ur.Unit.EDL, ur.Unit.Rules); err != nil {
				return fmt.Errorf("%s: %w", ur.Unit.Name, err)
			}
		}
	}
	// Counted through the untimed handle, so the scan is not charged to Put.
	l.entries += int64(p.cache.Len())
	return nil
}

func (p *project) verdictsPerOp() int { return len(p.units) }
func (p *project) inputHash() string  { return p.hash }
func (p *project) processWide() bool  { return true }
func (p *project) close() error       { return os.RemoveAll(filepath.Dir(p.root)) }
