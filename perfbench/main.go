// Command perfbench is the repository benchmark. It runs one named
// federation workload through the real entry points, core.Run and
// core.RunSimnet, checks every call's outputs, and prints the end-to-end
// metrics; with --trace 1 it also runs the workload on traced layers and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload simnet-flat --seed 7 --seconds 20 --trace 0
//
// Load shape: a closed loop (each round starts after the previous one
// commits), one federation per process, GOMAXPROCS 1 and the runtimes'
// Parallelism and MuxWorkers at their defaults, which follow it. One
// processor keeps the figures steadier on a shared machine: with two, every
// goroutine hand-off between the processors waits whenever the machine
// takes one of them away (measurements in NOTES.md). BENCHMARK.json at the
// repository root lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fedcdp/internal/core"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// procs is the GOMAXPROCS every run uses.
const procs = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measuring time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	e, err := w.experiment(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "workload %s seed %d config %s GOMAXPROCS %d\n", w.name, *seed, e.Digest(), procs)
	setup, err := w.setupSeconds(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	b := bench{w: w, cfg: e.CoreConfig(), simnet: e.Runtime.Simnet, out: stdout}
	if b.plan, err = bindPlan(b.cfg); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	budget := time.Duration(*seconds) * time.Second

	res := result{Metrics: map[string]metric{}}
	if *trace == 0 {
		u := b.untraced(budget, 2)
		res.add(u)
		res.put("rounds_per_s", median(u.rps), "rounds/s")
		res.put("setup_s", setup, "s")
		res.put("final_acc", median(u.acc), "fraction")
		res.put("epsilon", u.eps(), "eps")
		res.put("peak_rss_mb", median(u.rssMB), "MB")
		res.put("alloc_mb_per_round", median(u.allocMB), "MB")
	} else {
		u := b.untraced(budget/2, 1)
		res.add(u)
		t := b.traced(budget/2, u)
		res.add(t)
		res.layers(t, u)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one workload at one seed.
type bench struct {
	w      workload
	cfg    core.Config
	plan   *simnet.Plan
	simnet bool
	out    io.Writer
}

// pass is a sequence of entry-point calls of one kind.
type pass struct {
	calls     int
	rps       []float64
	allocMB   []float64 // per round
	acc       []float64
	rssMB     []float64 // peak RSS during the call
	iterMs    []float64
	wireKB    []float64 // per round
	heapMB    []float64
	attempted int
	failed    int
	ref       *outcome
	resolved  core.Config // Result.Cfg of the first call
	tally     tally
	gcShare   float64
}

func (p *pass) eps() float64 {
	if p.ref == nil {
		return 0
	}
	return p.ref.eps
}

// untraced calls the entry point repeatedly for about budget, at least
// minCalls times, and checks every call against the first.
func (b *bench) untraced(budget time.Duration, minCalls int) *pass {
	p := &pass{}
	start := time.Now()
	var last time.Duration
	for p.calls < minCalls || time.Since(start)+last <= budget {
		// Every call starts from a collected heap returned to the OS, with
		// the kernel's RSS high-water mark reset.
		debug.FreeOSMemory()
		resetPeakRSS()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		var res *core.Result
		var err error
		if b.simnet {
			res, err = core.RunSimnet(b.cfg)
		} else {
			res, err = core.Run(b.cfg)
		}
		last = time.Since(t0)
		runtime.ReadMemStats(&m1)
		rss := peakRSSMB()
		p.calls++
		if err != nil {
			b.fail(p, fmt.Errorf("call %d: %w", p.calls, err))
			return p
		}
		if p.ref == nil {
			p.resolved = res.Cfg
		}
		o := newOutcome(res.History)
		if !b.check(p, o) {
			return p
		}
		rounds := float64(b.cfg.Rounds)
		p.rps = append(p.rps, rounds/last.Seconds())
		p.allocMB = append(p.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/rounds/(1<<20))
		p.acc = append(p.acc, o.acc)
		p.rssMB = append(p.rssMB, rss)
		if ms, ok := res.MeanMsPerIter(); ok {
			p.iterMs = append(p.iterMs, ms)
		}
		var wire int64
		for _, rs := range res.Rounds {
			wire += rs.WireBytes
		}
		p.wireKB = append(p.wireKB, float64(wire)/rounds/1024)
		fmt.Fprintf(b.out, "call %d: %.4g rounds/s, %.4g MB/round\n", p.calls, p.rps[len(p.rps)-1], p.allocMB[len(p.allocMB)-1])
	}
	return p
}

// traced calls tracedRun or tracedSimnet for about budget, at least once, and
// checks each call against the untraced pass's first call.
func (b *bench) traced(budget time.Duration, u *pass) *pass {
	p := &pass{ref: u.ref}
	if u.ref == nil {
		return p
	}
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(cpu)
	gc0, total0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()
	start := time.Now()
	var last time.Duration
	for p.calls < 1 || time.Since(start)+last <= budget {
		debug.FreeOSMemory()
		tr := newRecorder(u.resolved.Rounds)
		t0 := time.Now()
		var hist *fl.History
		var err error
		if b.simnet {
			hist, err = tracedSimnet(u.resolved, tr)
		} else {
			hist, err = tracedRun(u.resolved, tr)
		}
		last = time.Since(t0)
		p.calls++
		if err != nil {
			b.fail(p, fmt.Errorf("traced call %d: %w", p.calls, err))
			return p
		}
		metrics.Read(heap)
		if !b.check(p, newOutcome(hist)) {
			return p
		}
		p.tally.fold(tr)
		p.rps = append(p.rps, float64(b.cfg.Rounds)/last.Seconds())
		p.heapMB = append(p.heapMB, float64(heap[0].Value.Uint64())/(1<<20))
		fmt.Fprintf(b.out, "traced call %d: %.4g rounds/s\n", p.calls, p.rps[len(p.rps)-1])
	}
	metrics.Read(cpu)
	if dt := cpu[1].Value.Float64() - total0; dt > 0 {
		p.gcShare = (cpu[0].Value.Float64() - gc0) / dt
	}
	return p
}

// check validates one call's outcome and compares it with the pass's
// reference; a failed check counts the call's whole cohort as failed.
func (b *bench) check(p *pass, o outcome) bool {
	attempted, err := conservation(b.cfg, b.plan, o)
	if err == nil {
		err = b.w.validate(o)
	}
	if err == nil && p.ref != nil {
		err = b.w.same(*p.ref, o)
	}
	if err != nil {
		b.fail(p, fmt.Errorf("call %d: %w", p.calls, err))
		return false
	}
	if p.ref == nil {
		p.ref = &o
	}
	p.attempted += attempted
	return true
}

func (b *bench) fail(p *pass, err error) {
	fmt.Fprintln(b.out, "check failed:", err)
	n := b.cfg.Kt * b.cfg.Rounds
	p.attempted += n
	p.failed += n
}

// setupSeconds times the set-up calls an entry point makes before round 0
// — config parse and validate, dataset construction, the validation set,
// the global model, and the plan bind — several times, and returns the
// median.
func (w workload) setupSeconds(seed int64) (float64, error) {
	const reps = 21
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := w.experiment(seed)
		if err != nil {
			return 0, err
		}
		cfg := e.CoreConfig()
		spec, ds, _, err := inputs(cfg)
		if err != nil {
			return 0, err
		}
		ds.Validation(cfg.ValExamples)
		nn.Build(spec.ModelSpec(), tensor.Split(cfg.Seed, 1))
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) add(p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
}

// layers puts the per-layer metrics of traced pass t, per round, and the
// untraced pass u's workload-specific metrics.
func (r *result) layers(t, u *pass) {
	tl := &t.tally
	n := float64(tl.rounds)
	if n == 0 {
		n = 1
	}
	ms := func(l layer) float64 { return float64(tl.ns[l]) / n / 1e6 }
	per := func(v int64) float64 { return float64(v) / n }
	r.put("dataset.batch_ms", ms(lBatch), "ms")
	r.put("dataset.examples", per(tl.counts[cExamples]), "count")
	r.put("nn.pass_ms", ms(lPass), "ms")
	r.put("nn.recover_ms", ms(lRecover), "ms")
	r.put("nn.step_ms", ms(lStep), "ms")
	r.put("nn.eval_ms", ms(lEval), "ms")
	r.put("dp.sanitize_ms", ms(lSanitize), "ms")
	r.put("dp.sanitized", per(tl.calls[lSanitize]), "count")
	r.put("fl.sample_ms", ms(lSample), "ms")
	r.put("fl.fold_ms", ms(lFold), "ms")
	r.put("fl.commit_ms", ms(lCommit), "ms")
	r.put("fl.folds", per(tl.counts[cUpdates]+tl.counts[cPartials]), "count")
	ratio := 0.0
	if d := tl.counts[cDispatched]; d > 0 {
		ratio = float64(tl.counts[cUpdates]) / float64(d)
	}
	r.put("fl.fold_ratio", ratio, "fraction")
	r.put("fl.mux_ms", ms(lMux), "ms")
	wait := 0.0
	if tl.ns[lServer] > 0 {
		wait = math.Max(0, float64(tl.ns[lServer]-tl.ns[lFold]-tl.ns[lCommit])/n/1e6)
	}
	r.put("fl.server_wait_ms", wait, "ms")
	r.put("fl.conn_write_ms", ms(lConnWrite), "ms")
	r.put("fl.conn_read_ms", ms(lConnRead), "ms")
	r.put("fl.msgs", per(tl.calls[lConnWrite]), "count")
	r.put("fl.wire_kb", per(tl.counts[cWireBytes])/1024, "KB")
	r.put("simnet.active_calls", per(tl.calls[lActive]), "count")
	r.put("simnet.active_ms", ms(lActive), "ms")
	r.put("simnet.fabric_kb", per(tl.counts[cFabricBytes])/1024, "KB")
	r.put("accountant.ms", ms(lAccount), "ms")
	r.put("accountant.participations", per(tl.counts[cParticipations]), "count")
	r.put("core.round_ms", ms(lRound), "ms")
	r.put("core.self_ms", float64(tl.selfNs)/n/1e6, "ms")
	r.put("go.gc_cpu_share", t.gcShare, "fraction")
	r.put("go.heap_live_mb", median(t.heapMB), "MB")
	overhead := 0.0
	if len(t.rps) > 0 && len(u.rps) > 0 {
		overhead = 1 - median(t.rps)/median(u.rps)
	}
	r.put("trace.overhead", overhead, "fraction")
	r.put("client_iter_ms", median(u.iterMs), "ms")
	r.put("wire_kb_per_round", median(u.wireKB), "KB")
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	r.put("failed_share", share, "fraction")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// resetPeakRSS resets the kernel's high-water RSS mark of this process
// (Linux 4.0 and later); elsewhere peakRSSMB keeps the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the high-water resident set size since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
