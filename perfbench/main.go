// Command perfbench is the PrivacyScope product-path benchmark. It drives
// only the product's public entry points (privacyscope.AnalyzeEnclave and
// AnalyzeFunction at default options, and batch.Run over a disk cache) in a
// closed loop, checks every verdict against a known answer, and prints its
// metrics as one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload audit --seed 1 --seconds 35 --trace 0
//
// Workloads: audit, path-explosion, project-rerun. With --trace 0 the run
// reports the end-to-end metrics; with --trace 1 it spends half its window
// untraced and half with an observer attached, and reports the per-layer
// metrics. See perfbench/README.md for every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"privacyscope"
)

// env is what a workload's set-up receives.
type env struct {
	root string // repository root: examples/ lives here
	work string // scratch directory for generated files, removed at exit
	seed int64
}

// workload is one closed-loop benchmark workload. Op 0 is the cold op run
// during set-up; the timed ops follow it.
type workload interface {
	// prepare readies op i's input outside the timed region.
	prepare(i int) error
	// exec runs op i; l is nil in an untraced phase.
	exec(i int, l *layers) any
	// check validates op i's verdicts and returns how many there were and
	// the first mismatch ("" when every verdict is right).
	check(i int, out any) (verdicts int, bad string)
	// probe repeats op i's front-end (and batch key) work under timers; it
	// runs after the op, in traced phases only.
	probe(i int, l *layers) error
	// verdictsPerOp is the number of verdicts every op yields.
	verdictsPerOp() int
	// inputHash digests every generated input.
	inputHash() string
	// processWide reports whether an op runs on several goroutines, so
	// that its CPU time must be read from the process clock.
	processWide() bool
	close() error
}

// setupProbes is how many speed-probe runs precede each set-up, so that a
// set-up taken in a slow period is scaled by probes from that period.
const setupProbes = 3

type workloadSpec struct {
	setup func(env) (workload, error)
	// setups is how many times a run sets the workload up; setup_s is
	// their median.
	setups int
}

var workloads = map[string]workloadSpec{
	"audit":          {setup: newAudit, setups: 5},
	"path-explosion": {setup: newExplosion, setups: 5},
	"project-rerun":  {setup: newProject, setups: 5},
}

// phase collects one measured window.
type phase struct {
	opCPU, opPeak      []float64 // per op: CPU ms, peak heap MiB
	verdicts           int
	attempted, failed  int
	firstFailure       string
	cpu                float64    // process CPU seconds over the window
	rt                 rtSnapshot // runtime counter deltas over the window
	statStart, statEnd cpuStat
}

func (p *phase) record(i int, w workload, out any) {
	v, bad := w.check(i, out)
	p.verdicts += v
	p.attempted++
	if bad != "" {
		p.failed++
		if p.firstFailure == "" {
			p.firstFailure = fmt.Sprintf("op %d: %s", i, bad)
		}
	}
}

// measure runs ops from index next until the window closes (at least one
// op) and returns the phase with the index after its last op.
func measure(w workload, next int, window time.Duration, l *layers, hs *heapSampler, sp *speedProbe) (*phase, int, error) {
	clock := threadCPU
	if w.processWide() {
		clock = processCPU
	}
	p := &phase{statStart: readCPUStat()}
	rt0, cpu0 := readRuntime(), processCPU()
	deadline := time.Now().Add(window)
	for first, i := next, next; i == first || time.Now().Before(deadline); i++ {
		if err := w.prepare(i); err != nil {
			return nil, 0, err
		}
		sp.run()
		var a0 rtSnapshot
		if l != nil {
			a0 = readRuntime()
		}
		hs.reset()
		wall0 := time.Now()
		c0 := clock()
		out := w.exec(i, l)
		c1 := clock()
		wall := time.Since(wall0)
		p.opPeak = append(p.opPeak, float64(hs.peak())/(1<<20))
		p.opCPU = append(p.opCPU, float64(c1-c0)/1e6)
		if l != nil {
			a1 := readRuntime()
			l.ops++
			l.opWall += wall
			l.allocBytes += a1.allocBytes - a0.allocBytes
			l.allocObjects += a1.allocObjects - a0.allocObjects
		}
		p.record(i, w, out)
		if l != nil {
			if err := w.probe(i, l); err != nil {
				return nil, 0, err
			}
		}
		next = i + 1
	}
	p.cpu = float64(processCPU()-cpu0) / 1e9
	rt1 := readRuntime()
	p.rt = rtSnapshot{
		allocBytes:   rt1.allocBytes - rt0.allocBytes,
		allocObjects: rt1.allocObjects - rt0.allocObjects,
		gcCycles:     rt1.gcCycles - rt0.gcCycles,
		gcCPU:        rt1.gcCPU - rt0.gcCPU,
		totalCPU:     rt1.totalCPU - rt0.totalCPU,
	}
	p.statEnd = readCPUStat()
	return p, next, nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostRecord is printed before the result, so that a run taken on a busy
// host can be recognised.
type hostRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"numCPU"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Engine     string  `json:"engine"`
	InputHash  string  `json:"inputHash"`
	StealShare float64 `json:"stealShare"`
	// CPUScale multiplies the raw CPU times into the printed ones (see
	// speed.go); ProbeMs is the speed probe's median time in this run.
	CPUScale float64 `json:"cpuScale"`
	ProbeMs  float64 `json:"probeMs"`
	Ops      int     `json:"ops"`
	// VerdictsPerOp is the op's size; it does not depend on the seed.
	VerdictsPerOp int    `json:"verdictsPerOp"`
	FirstFailed   string `json:"firstFailure,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

// report is everything one run produced.
type report struct {
	host   hostRecord
	result result
}

func run(o options) (*report, error) {
	spec, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", o.workload, sortedKeys(workloads))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	// Generated files live in the checkout, under the build directory the
	// run script also uses, and are removed when the run ends.
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	work, err := os.MkdirTemp(build, "perfbench-work-")
	if err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(work)

	// Sequential workloads read the calling thread's clock, which is only
	// meaningful while the goroutine stays on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	hs := startHeapSampler()
	defer hs.close()
	sp, err := newSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer sp.close()

	var (
		w      workload
		setups []float64
		cold   = &phase{}
	)
	for r := 0; r < spec.setups; r++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		// Flush the file system first, so that writeback and discards left
		// by an earlier run are not charged to this set-up.
		syscall.Sync()
		runtime.GC()
		for k := 0; k < setupProbes; k++ {
			sp.run()
		}
		c0 := processCPU()
		w, err = spec.setup(env{root: o.root, work: filepath.Join(work, fmt.Sprint(r)), seed: o.seed})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.prepare(0); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cold.record(0, w, w.exec(0, nil))
		setups = append(setups, float64(processCPU()-c0)/1e9)
	}
	defer w.close()

	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	runtime.GC()
	untraced, next, err := measure(w, 1, window, nil, hs, sp)
	if err != nil {
		return nil, err
	}
	phases := []*phase{cold, untraced}
	rep := &report{}
	if o.trace {
		l := newLayers()
		traced, _, err := measure(w, next, window, l, hs, sp)
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
		rep.result.Metrics = perLayer(l, traced, untraced)
	} else {
		scale := sp.scale()
		rep.result.Metrics = map[string]metricValue{
			"setup_s":              {median(setups) * scale, "s"},
			"op_cpu_ms.p50":        {quantile(untraced.opCPU, 0.5) * scale, "ms"},
			"op_cpu_ms.p90":        {quantile(untraced.opCPU, 0.9) * scale, "ms"},
			"verdicts_per_cpu_s":   {ratio(float64(untraced.verdicts), untraced.cpu*scale), "1/s"},
			"alloc_mb_per_verdict": {ratio(float64(untraced.rt.allocBytes)/(1<<20), float64(untraced.verdicts)), "MiB"},
			"peak_heap_mb":         {median(untraced.opPeak), "MiB"},
		}
	}

	rep.host = hostRecord{
		Workload:      o.workload,
		Seed:          o.seed,
		Trace:         o.trace,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Engine:        privacyscope.Fingerprint(),
		InputHash:     w.inputHash(),
		VerdictsPerOp: w.verdictsPerOp(),
		StealShare:    stealShare(untraced.statStart, phases[len(phases)-1].statEnd),
		CPUScale:      sp.scale(),
		ProbeMs:       median(sp.samples) / 1e6,
	}
	for _, p := range phases {
		rep.result.Attempted += p.attempted
		rep.result.Failed += p.failed
		if rep.host.FirstFailed == "" {
			rep.host.FirstFailed = p.firstFailure
		}
	}
	rep.host.Ops = rep.result.Attempted
	rep.result.Correct = rep.result.Failed == 0
	return rep, nil
}

// detectorNames are the registered detectors a workload can run at
// default options or through a rule file; each gets a detect.<name>_ms
// metric.
var detectorNames = []string{
	"explicit", "implicit", "ocall-pointer", "errcode-channel",
	"orderliness", "access-pattern",
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: audit, path-explosion or project-rerun")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 35, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.root = root
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host, _ := json.Marshal(rep.host)
	fmt.Printf("host %s\n", host)
	for _, n := range sortedKeys(rep.result.Metrics) {
		m := rep.result.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
