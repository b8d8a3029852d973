// Command perfbench is the repository's benchmark: it stands up a
// durable four-tenant leader and a WAL-tailing follower in one process,
// drives them over HTTP with two closed-loop clients, checks every
// answer against the native APPEL engine and its own record of the
// writes it made, and prints one JSON result line. See README.md.
//
//	go run . --workload check-named --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"p3pdb/internal/obs"
	"p3pdb/internal/server"
)

// Run shape.
const (
	numClients   = 2
	setupRepeats = 3 // set-ups per run; setup_s is their median
	restarts     = 7 // crash/reopen cycles per run; restart_s is their median
	tailRecords  = 8 // logged writes per tenant after the pre-restart checkpoint
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload: check-named, check-appel or write-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "runs"), "scratch directory for the deployment's state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*wname)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wname)
		return 2
	}
	res, err := Run(Config{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Dir: *dir, Log: stdout})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// Config is one run.
type Config struct {
	Workload Workload
	Seed     int64
	Seconds  float64
	Trace    bool
	Dir      string
	Log      io.Writer
	// Tamper, when set, alters the expectations once set-up is done; the
	// tests use it to prove the checks catch a wrong verdict or policy.
	Tamper func(*Inputs, *Record)
}

// Run performs one benchmark run.
func Run(cfg Config) (*Result, error) {
	in, err := NewInputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(filepath.Join(cfg.Dir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	host := map[string]any{
		"workload": cfg.Workload.Name, "seed": cfg.Seed, "trace": cfg.Trace,
		"numCpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	logJSON(cfg.Log, "host", host)

	// Set-up, repeated; the last deployment is kept for the run.
	var dep *Deployment
	var rec *Record
	var setupS []float64
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		start := time.Now()
		d, r, err := Setup(in, filepath.Join(root, fmt.Sprintf("setup-%d", k)))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if k < setupRepeats-1 {
			d.Close()
			continue
		}
		dep, rec = d, r
	}
	defer func() { dep.Close() }()
	if cfg.Tamper != nil {
		cfg.Tamper(in, rec)
	}

	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(i, dep, in, rec, cfg.Workload)
	}
	total := result{}

	// Warm-up: whole rounds for a fixed share of the run, discarded.
	// Then every tenant is checkpointed (what SIGHUP does to p3pserver),
	// so each timed phase starts with empty logs: the cost of reading
	// the log grows with it, and runs must not differ in where they
	// start in the checkpoint cycle.
	warm := runPhase(clients, dur(cfg.Seconds/10), nil)
	total.add(warm.res)
	if err := checkpointAll(dep, in, rec); err != nil {
		return nil, err
	}
	runtime.GC()

	var timed, traced *phase
	var tr *tracer
	if !cfg.Trace {
		timed = runPhase(clients, dur(cfg.Seconds), nil)
	} else {
		// The traced run splits its time: an untraced half gives the
		// counter-based layer metrics and the reference end-to-end
		// numbers, a traced half replays every operation into the
		// layers' public functions.
		timed = runPhase(clients, dur(cfg.Seconds/2), nil)
		if tr, err = newTracer(dep, in); err != nil {
			return nil, err
		}
		defer tr.close()
		runtime.GC()
		traced = runPhase(clients, dur(cfg.Seconds/2), tr)
	}
	total.add(timed.res)
	if traced != nil {
		total.add(traced.res)
	}

	// The follower must end holding exactly the acknowledged writes.
	var diffs []string
	if err := dep.WaitCaughtUp(30 * time.Second); err != nil {
		diffs = append(diffs, err.Error())
	}
	for i, t := range in.Tenants {
		lsite, err := dep.reg.Get(t)
		if err != nil {
			return nil, err
		}
		fsite, err := dep.follower.Registry().Get(t)
		if err != nil {
			return nil, err
		}
		diffs = append(diffs, prefixed("leader", rec.Compare(i, lsite.ExportState()))...)
		diffs = append(diffs, prefixed("follower", rec.Compare(i, fsite.ExportState()))...)
	}

	// Restart: crash the leader and reopen it from its directory until
	// it serves a correct /check; repeated, median reported. Every
	// tenant first gets a checkpoint and then the same few logged
	// reference-file updates, so each reopen replays a snapshot plus a
	// log tail of the same length whatever the run wrote before.
	if err := checkpointAll(dep, in, rec); err != nil {
		return nil, err
	}
	c := clients[0]
	c.res, c.t0 = result{}, time.Now()
	for ti := range in.Tenants {
		for k := 0; k < tailRecords; k++ {
			c.writeOp(ti, opReference)
		}
	}
	total.add(c.res)
	var restartS []float64
	for k := 0; k < restarts; k++ {
		if err := dep.Crash(in.Tenants); err != nil {
			return nil, err
		}
		if tr != nil && k == 0 {
			if err := tr.replay(filepath.Join(dep.dir, "leader"), in.Tenants); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := dep.Reopen(); err != nil {
			return nil, err
		}
		if err := firstCheck(dep, in, rec); err != nil {
			diffs = append(diffs, err.Error())
		}
		restartS = append(restartS, time.Since(start).Seconds())
		if k == 0 {
			for i, t := range in.Tenants {
				site, err := dep.reg.Get(t)
				if err != nil {
					return nil, err
				}
				diffs = append(diffs, prefixed("reopened leader", rec.Compare(i, site.ExportState()))...)
			}
		}
	}

	correct := total.wrong == 0 && total.unsoundFast == 0 && len(diffs) == 0
	for _, n := range total.notes {
		fmt.Fprintln(cfg.Log, "note:", n)
	}
	for _, d := range diffs {
		fmt.Fprintln(cfg.Log, "state:", d)
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Linux reports Maxrss in KiB
	e2e := endToEnd(timed, median(setupS), median(restartS), float64(ru.Maxrss)/1024)
	out := &Result{Correct: correct, Attempted: total.checks + total.writes, Failed: total.failed, Metrics: e2e}
	logJSON(cfg.Log, "counts", map[string]any{
		"checks": total.checks, "writes": total.writes, "failed": total.failed, "wrong": total.wrong,
		"unsoundFastPath": total.unsoundFast, "stateDiffs": len(diffs),
		"setupS": setupS, "restartS": restartS,
		"timedChecks": timed.res.checks, "timedWrites": timed.res.writes,
		"windowCPU": timed.winCPU,
	})
	if cfg.Trace {
		te2e := endToEnd(traced, median(setupS), median(restartS), float64(ru.Maxrss)/1024)
		logJSON(cfg.Log, "trace-overhead", map[string]any{"untraced": e2e, "traced": te2e})
		out.Metrics = perLayer(timed, tr)
		out.Metrics["trace.overhead_check_p50"] = Metric{ratio(te2e["check_p50_ms"].Value, e2e["check_p50_ms"].Value), "x"}
		out.Metrics["trace.overhead_cpu_per_op"] = Metric{ratio(te2e["cpu_us_per_op"].Value, e2e["cpu_us_per_op"].Value), "x"}
	}
	return out, nil
}

// checkpointAll checkpoints every tenant and records the checkpoint
// positions, so write_amp counts only checkpoints its phase caused.
func checkpointAll(dep *Deployment, in *Inputs, rec *Record) error {
	if err := dep.reg.CheckpointAll(); err != nil {
		return err
	}
	for i, t := range in.Tenants {
		if j := dep.reg.Journal(t); j != nil {
			rec.tenants[i].ckptLSN = j.Status().CheckpointLSN
		}
	}
	return nil
}

func prefixed(p string, diffs []string) []string {
	for i := range diffs {
		diffs[i] = p + ": " + diffs[i]
	}
	return diffs
}

func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func logJSON(w io.Writer, kind string, v any) {
	data, _ := json.Marshal(map[string]any{kind: v}) // plain maps of numbers and strings
	fmt.Fprintln(w, string(data))
}

// firstCheck sends one /check to the reopened leader and judges it
// against the record: every write was acknowledged, so exactly the
// current version may answer.
func firstCheck(dep *Deployment, in *Inputs, rec *Record) error {
	t := rec.tenants[0]
	j := 0
	q := url.Values{"url": {"/" + in.Slots[j] + "/index.html"}, "level": {"paranoid"}}
	target := dep.leader.url + "/sites/" + in.Tenants[0] + "/check?" + q.Encode()
	status, data, err := do(context.Background(), newHTTPClient(), http.MethodGet, target, "")
	if err != nil {
		return fmt.Errorf("perfbench: first check after restart: %w", err)
	}
	var resp server.CheckResponse
	if status != http.StatusOK || json.Unmarshal(data, &resp) != nil || resp.URL == nil {
		return fmt.Errorf("perfbench: first check after restart: status %d: %.200s", status, data)
	}
	want := in.Verdict[t.content[j]][j]["High"]
	if resp.URL.PolicyName != t.names[j] || resp.Allowed != want {
		return fmt.Errorf("perfbench: first check after restart: %s allowed=%v, want %s allowed=%v",
			resp.URL.PolicyName, resp.Allowed, t.names[j], want)
	}
	return nil
}

// phase is what one timed phase measured.
type phase struct {
	res     result
	elapsed time.Duration
	cpu     time.Duration
	delta   obs.Snapshot
	mallocs uint64
	bytes   uint64
	gcs     uint32
	// The phase is cut into equal windows; rates and medians are
	// reported as the median over windows, so a burst of load from
	// outside the process moves one window, not the figure.
	window float64   // seconds
	winCPU []float64 // process CPU seconds per window
}

// windows is how many equal windows a phase is cut into.
const windows = 10

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase runs every client until the deadline (each finishing its
// round) and collects what they saw plus the process-wide deltas.
func runPhase(clients []*client, d time.Duration, tr *tracer) *phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := obs.Default.Snapshot()
	p := &phase{window: d.Seconds() / windows, winCPU: make([]float64, windows)}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	results := make([]result, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			c.tr = tr
			results[i] = c.run(start, deadline)
			c.tr = nil
		}(i, c)
	}
	// Sample process CPU time at every window boundary.
	last := cpu0
	for k := 0; k < windows; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(float64(k+1) * p.window * float64(time.Second)))))
		now := cpuTime()
		p.winCPU[k] = (now - last).Seconds()
		last = now
	}
	wg.Wait()
	p.elapsed, p.cpu = time.Since(start), cpuTime()-cpu0
	p.delta = obs.Default.Snapshot().Delta(before)
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	for _, r := range results {
		p.res.add(r)
	}
	return p
}

func (p *phase) ops() int { return p.res.checks + p.res.writes }

// split sorts samples into the phase's windows by completion time;
// samples completing after the last window (the rounds finishing past
// the deadline) are left out.
func (p *phase) split(ss []sample) [][]float64 {
	out := make([][]float64, windows)
	for _, s := range ss {
		if k := int(s.at / p.window); k < windows {
			out[k] = append(out[k], s.ms)
		}
	}
	return out
}

// windowMedian is the median over windows of f applied to each
// non-empty window.
func (p *phase) windowMedian(ss []sample, f func([]float64) float64) float64 {
	var vals []float64
	for _, w := range p.split(ss) {
		if len(w) > 0 {
			vals = append(vals, f(w))
		}
	}
	return median(vals)
}

func p50(v []float64) float64 { return quantile(v, 0.5) }

// tail is the q-quantile of the samples: the median over windows of
// each window's quantile when every window holds at least ten samples
// beyond it, else the quantile of the whole phase pooled.
func (p *phase) tail(ss []sample, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	perWindow := true
	for _, w := range p.split(ss) {
		if len(w) < need {
			perWindow = false
		}
	}
	if perWindow {
		return p.windowMedian(ss, func(v []float64) float64 { return quantile(v, q) })
	}
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.ms
	}
	return quantile(v, q)
}

// endToEnd computes the user-facing metrics of a phase. Rates and
// medians are medians over windows; tails too where every window holds
// enough samples for them (see tail).
func endToEnd(p *phase, setupS, restartS, rssMB float64) map[string]Metric {
	checks, writes := p.split(p.res.checkMs), p.split(p.res.writeMs)
	var rps, cpuPerOp []float64
	for k := 0; k < windows; k++ {
		rps = append(rps, float64(len(checks[k]))/p.window)
		if ops := len(checks[k]) + len(writes[k]); ops > 0 {
			cpuPerOp = append(cpuPerOp, p.winCPU[k]*1e6/float64(ops))
		}
	}
	appended := float64(p.delta.Counters["durable.bytes_appended"])
	return map[string]Metric{
		"setup_s":        {setupS, "s"},
		"check_rps":      {median(rps), "checks/s"},
		"check_p50_ms":   {p.windowMedian(p.res.checkMs, p50), "ms"},
		"check_p99_ms":   {p.tail(p.res.checkMs, 0.99), "ms"},
		"cpu_us_per_op":  {median(cpuPerOp), "us"},
		"write_p50_ms":   {p.windowMedian(p.res.writeMs, p50), "ms"},
		"write_p95_ms":   {p.tail(p.res.writeMs, 0.95), "ms"},
		"visible_p50_ms": {p.windowMedian(p.res.visMs, p50), "ms"},
		"visible_p95_ms": {p.tail(p.res.visMs, 0.95), "ms"},
		"write_amp":      {ratio(appended+float64(p.res.ckptBytes), float64(p.res.docBytes)), "x"},
		"restart_s":      {restartS, "s"},
		"peak_rss_mb":    {rssMB, "MB"},
	}
}

// quantile is the linear-interpolated q-quantile; 0 when empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
