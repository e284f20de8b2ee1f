// Command perfbench is the repository benchmark. It drives one of four
// fixed-work workloads through the system's public entry points — the
// serve.Server over loopback HTTP, Server.Recover on a wal.Store, and
// bo.Run on the class-E testbench — checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is the
// result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, timed from outside the program (see trace.go).
// The line before it is a full record: workload, seed, machine
// fingerprint, operation counts and the same metrics.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload serve-bo -seed 1 -seconds 15 -trace 0
//	perfbench -compare old.out new.out
//
// See README.md in this directory for why each workload exists and which
// layer metric each one moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, printed before the result.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Passes      int               `json:"passes"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Shed        int64             `json:"shed"`
	Samples     int               `json:"op_samples"`
	TailPct     float64           `json:"op_tail_percentile"`
	Extra       map[string]any    `json:"extra,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
}

// env is what a workload gets from the command line.
type env struct {
	seed int64
	work string // scratch directory of this run, removed at exit
	c    counters
	tr   atomic.Pointer[tracer] // set while a traced pass runs
}

// passResult is what one pass of a workload's fixed work measured.
type passResult struct {
	wall  time.Duration // the workload's timed unit of work
	ops   []float64     // per-operation latencies, ms
	best  float64       // quality: mean best objective value found
	heap  float64       // live heap at the end of the work, MB
	total time.Duration // the traced total the layers must account for
}

// workload is one fixed-work benchmark.
type workload interface {
	// setup prepares everything the passes need; it is timed as setup_s.
	setup() error
	// teardown releases what setup made; it is idempotent.
	teardown()
	// pass runs the fixed work once.
	pass(i int, traced bool) (passResult, error)
	// check verifies the outputs of every pass run so far.
	check() error
	// layers fills the per-layer metrics of the traced passes.
	layers(m map[string]metric, traced passResult)
	// extra reports workload facts for the record line.
	extra() map[string]any
}

// spec describes a workload: its constructor and how long one pass takes
// on the reference machine, from which -seconds sets the pass count.
type spec struct {
	passSec float64
	make    func(*env) workload
}

var workloads = map[string]spec{
	"serve-bo": {
		passSec: 4.5,
		make:    newServeBO,
	},
	"serve-wal": {
		passSec: 2,
		make:    newServeWAL,
	},
	"recover": {
		passSec: 3,
		make:    newRecover,
	},
	"synth-classe": {
		passSec: 6.5,
		make:    newSynth,
	},
}

// setups is how many times set-up runs in an untraced run; setup_s is the
// median.
const setups = 3

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"wall_s", "s"}, {"op_p50_ms", "ms"}, {"op_tail_ms", "ms"}, {"live_heap_mb", "MB"},
}

// perLayer lists every per-layer metric; a workload that does not reach a
// layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"serve.ask_self_ms_p50", "ms"}, {"serve.tell_self_ms_p50", "ms"}, {"serve.http_ms_p50", "ms"},
	{"serve.replay_ms_per_event", "ms"}, {"serve.sessions_recovered", "count"}, {"serve.sessions_quarantined", "count"},
	{"wal.appends", "count"}, {"wal.append_us_p50", "us"}, {"wal.compactions", "count"},
	{"wal.compact_ms_total", "ms"}, {"wal.bytes", "B"}, {"wal.load_ms_total", "ms"}, {"wal.list_ms", "ms"},
	{"core.suggest_ms_p50", "ms"}, {"core.suggest_ms_p95", "ms"}, {"core.observe_us_p50", "us"},
	{"surrogate.fit_calls", "count"}, {"surrogate.fit_ms_total", "ms"}, {"surrogate.fit_ms_max", "ms"},
	{"surrogate.pseudo_ms_total", "ms"}, {"surrogate.predicts_per_ask", "count"}, {"surrogate.predict_ns", "ns"},
	{"acq.maximize_ms_p50", "ms"},
	{"testbench.evals", "count"}, {"testbench.eval_ms_p50", "ms"}, {"testbench.busy_share", "ratio"},
	{"bo.optimizer_s", "s"}, {"bo.classe_fom", "fom"}, {"bo.makespan_ratio", "ratio"},
	{"trace.accounted_share", "ratio"}, {"trace.overhead_pct", "%"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-bo | serve-wal | recover | synth-classe")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 15, "measurement length; sets how many fixed-work passes run")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		work    = flag.String("work", ".bench_build/work", "scratch directory for WAL files and traces")
		compare = flag.Bool("compare", false, "compare the records in two output files: perfbench -compare old new")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	sp, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	rec, err := run(*name, sp, *seed, *seconds, *trace == 1, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		line, _ := jsonLine(result{Correct: false, Attempted: max(rec.Attempted, 1), Failed: max(rec.Failed, 1), Metrics: map[string]metric{}})
		fmt.Println(line)
		os.Exit(1)
	}
	line, err := jsonLine(rec)
	if err == nil {
		fmt.Println(line)
		line, err = jsonLine(result{Correct: true, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: encoding the result: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func jsonLine(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// passCount turns -seconds into a whole number of passes (at least two, so
// every run can compare a pass against a repeat of itself).
func passCount(seconds int, passSec float64) int {
	return max(2, int(math.Round(float64(seconds)/passSec)))
}

// run executes one benchmark run and returns its record.
func run(name string, sp spec, seed int64, seconds int, traced bool, work string) (rec record, err error) {
	e := &env{seed: seed}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return rec, err
	}
	if e.work, err = os.MkdirTemp(work, name+"-"); err != nil {
		return rec, err
	}
	defer os.RemoveAll(e.work)
	rec = record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Fingerprint: machineFingerprint()}
	w := sp.make(e)
	defer w.teardown()
	defer func() {
		rec.Attempted, rec.Failed, rec.Shed = e.c.attempted.Load(), e.c.failed.Load(), e.c.shed.Load()
	}()

	nSetup := setups
	if traced {
		nSetup = 1
	}
	var setupS []float64
	for i := 0; i < nSetup; i++ {
		if i > 0 {
			w.teardown()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return rec, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	passes := passCount(seconds, sp.passSec)
	if traced {
		// A traced run measures one pass untraced, as the base of the
		// tracing overhead, and then traces one.
		passes = 2
	}
	var results []passResult
	for i := 0; i < passes; i++ {
		tracedPass := traced && i == 1
		if tracedPass {
			e.tr.Store(newTracer())
		}
		r, err := w.pass(i, tracedPass)
		if err != nil {
			return rec, fmt.Errorf("pass %d: %w", i, err)
		}
		results = append(results, r)
	}
	rec.Passes = len(results)
	if err := w.check(); err != nil {
		return rec, fmt.Errorf("check: %w", err)
	}
	rec.Extra = w.extra()

	// The tail's percentile is chosen from all passes' samples together;
	// each latency metric is then the median over passes of the per-pass
	// value, so one pass disturbed by the host does not move it.
	for _, r := range results {
		rec.Samples += len(r.ops)
	}
	rec.TailPct = tailPercentile(rec.Samples)
	if rec.TailPct == 0 {
		return rec, fmt.Errorf("%d operation samples: too few for a median with %d beyond it", rec.Samples, minBeyond)
	}
	var walls, heaps, p50s, tails []float64
	for _, r := range results {
		walls = append(walls, r.wall.Seconds())
		heaps = append(heaps, r.heap)
		p50s = append(p50s, median(r.ops))
		tails = append(tails, percentile(r.ops, rec.TailPct))
	}
	rec.Extra["pass_wall_s"] = walls
	rec.Extra["best_y"] = results[0].best
	rec.Metrics = map[string]metric{}
	if !traced {
		vals := map[string]float64{
			"setup_s":      median(setupS),
			"wall_s":       median(walls),
			"op_p50_ms":    median(p50s),
			"op_tail_ms":   median(tails),
			"live_heap_mb": median(heaps),
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return rec, nil
	}
	t := e.tr.Load()
	for _, m := range perLayer {
		rec.Metrics[m.name] = metric{0, m.unit}
	}
	w.layers(rec.Metrics, results[1])
	base, tot := results[0].total, results[1].total
	setMetric(rec.Metrics, "trace.overhead_pct", 100*(tot-base).Seconds()/base.Seconds())
	dir := filepath.Join(work, "traces")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		if err := t.write(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		}
	}
	return rec, nil
}

// setMetric sets the value of a declared per-layer metric.
func setMetric(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// liveHeapMB collects garbage and returns the heap still in use: the
// memory the system holds for its state at that point. The second
// collection empties what sync.Pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareMain compares the records of two runs of one workload. It refuses
// results from different machines and asks for a re-baseline instead.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -compare <old output> <new output>")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		r, err := readRecord(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		recs[i] = r
	}
	if err := comparable(recs[0].Fingerprint, recs[1].Fingerprint); err != nil {
		fmt.Println("re-baseline:", err)
		return 3
	}
	if recs[0].Workload != recs[1].Workload || recs[0].Trace != recs[1].Trace || recs[0].Seconds != recs[1].Seconds {
		fmt.Println("re-baseline: the records come from different workloads or settings")
		return 3
	}
	for _, k := range sortedKeys(recs[0].Metrics) {
		a, b := recs[0].Metrics[k], recs[1].Metrics[k]
		fmt.Printf("%-28s %14.6g %14.6g %s  (%+.1f%%)\n", k, a.Value, b.Value, a.Unit, 100*(b.Value-a.Value)/a.Value)
	}
	return 0
}

// readRecord finds the record line in a run's saved output.
func readRecord(path string) (record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, `"fingerprint"`) {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return record{}, fmt.Errorf("%s: %w", path, err)
		}
		return r, nil
	}
	return record{}, fmt.Errorf("%s: no record line", path)
}
