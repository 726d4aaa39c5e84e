// Command perfbench is the repository benchmark. It runs one pinned
// workload: a series of untraced simulations, each in its own process and
// timed from outside, for the end-to-end metrics; then one traced
// simulation with identical inputs for the per-layer metrics and the
// behaviour digest. It checks the outputs of every run and prints one JSON
// result line last on standard output.
//
//	perfbench --workload ipv4-cpu-64b --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read the traced
// run's output.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	// One simulation is single-threaded; the cap keeps GC parallelism,
	// and so host time, comparable across machines.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "host seconds to spend on untraced runs")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of the traced run instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans and layer counters")
	child := fs.String("child", "", "internal: run one simulation (timed|traced) or the reference kernel (ref) and print its record")
	expectFP := fs.String("expect-fingerprint", "", "internal: fingerprint the traced run must reproduce")
	untracedRunS := fs.Float64("untraced-run-s", 0, "internal: median untraced Run seconds")
	layers := fs.Bool("layers", false, "internal: profile the traced run and replay the layers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	switch *child {
	case "":
	case "timed":
		return emit(stdout, stderr, func() (any, error) { return timedChild(w, *seed) })
	case "ref":
		return emit(stdout, stderr, func() (any, error) { return refKernel(), nil })
	case "traced":
		opts := tracedOptions{
			expectFingerprint: *expectFP,
			untracedRunS:      *untracedRunS,
			layers:            *layers,
			traceDir:          *traceDir,
		}
		return emit(stdout, stderr, func() (any, error) { return tracedChild(w, *seed, opts) })
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -child %q\n", *child)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	spawnChild := func(out any, args ...string) (float64, error) { return spawn(out, stderr, args...) }
	res := orchestrate(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *traceDir, spawnChild, stderr)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// emit runs a child's work and writes its record as JSON.
func emit(stdout, stderr io.Writer, work func() (any, error)) int {
	v, err := work()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(v); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func timedChild(w *workload, seed uint64) (*simResult, error) {
	cfg, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	e, err := execute(cfg, nil)
	if err != nil {
		return nil, err
	}
	return summarize(w, e)
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timedRecord is one untraced run as seen by the orchestrator.
type timedRecord struct {
	*simResult
	peakRSSMB float64
}

// childFunc runs one simulation as a child (-child timed|traced ...),
// decodes its record into out and returns its peak RSS in MiB.
type childFunc func(out any, args ...string) (float64, error)

// orchestrate runs the untraced series, then the traced run, checks every
// output and assembles the result line.
//
// The untraced runs cycle over the workload's sub-seeds (subSeed(seed, j),
// j < w.subSeeds; sub-seed 0 is the seed itself) until every sub-seed has
// run and budget has passed. Each metric is the median over sub-seeds of
// the per-sub-seed median over repeats, so one result summarises several
// independent trajectories of the workload. The traced run uses sub-seed 0.
// An operation is one simulation; it fails when its process fails or its
// outputs do not pass the checks.
func orchestrate(w *workload, seed uint64, budget time.Duration, layers bool, traceDir string, child childFunc, stderr io.Writer) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, a ...any) {
		fmt.Fprintf(stderr, "perfbench: %s: "+format+"\n", append([]any{w.name}, a...)...)
		res.Correct = false
		res.Failed++
	}

	bySub := make([][]timedRecord, w.subSeeds) // untraced runs per sub-seed
	start := time.Now()
	for i := 0; i < w.subSeeds || time.Since(start) < budget; i++ {
		j := i % w.subSeeds
		res.Attempted++
		var r simResult
		var refBefore, refAfter float64
		_, err := child(&refBefore, "-child", "ref", "-workload", w.name)
		var rss float64
		if err == nil {
			rss, err = child(&r, "-child", "timed", "-workload", w.name, "-seed", strconv.FormatUint(subSeed(seed, j), 10))
		}
		if err == nil {
			_, err = child(&refAfter, "-child", "ref", "-workload", w.name)
		}
		if err != nil {
			fail("timed run %d: %v", res.Attempted, err)
			return res
		}
		r.RefS = (refBefore + refAfter) / 2
		if len(r.Problems) > 0 {
			fail("timed run %d: %v", res.Attempted, r.Problems)
		} else if prev := bySub[j]; len(prev) > 0 && r.Fingerprint != prev[0].Fingerprint {
			fail("timed run %d: report fingerprint %s differs from the same seed's first run's %s", res.Attempted, r.Fingerprint, prev[0].Fingerprint)
		}
		bySub[j] = append(bySub[j], timedRecord{&r, rss})
	}

	median := func(f func(timedRecord) float64) float64 {
		subs := make([]float64, len(bySub))
		for j, runs := range bySub {
			v := make([]float64, len(runs))
			for i, r := range runs {
				v[i] = f(r)
			}
			subs[j] = medianOf(v)
		}
		return medianOf(subs)
	}

	fmt.Fprintf(stderr, "perfbench: %s: %d untraced runs; uncalibrated sim_s_per_s %.5g, setup_s %.5g; reference kernel %.4g ms\n",
		w.name, res.Attempted,
		median(func(r timedRecord) float64 { return r.SimS / r.RunS }),
		median(func(r timedRecord) float64 { return r.SetupS }),
		median(func(r timedRecord) float64 { return r.RefS * 1e3 }))

	res.Attempted++
	var tr tracedResult
	args := []string{"-child", "traced", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-expect-fingerprint", bySub[0][0].Fingerprint,
		"-untraced-run-s", strconv.FormatFloat(medianOf(runSeconds(bySub[0])), 'g', -1, 64),
		"-trace-dir", traceDir}
	if layers {
		args = append(args, "-layers")
	}
	if _, err := child(&tr, args...); err != nil {
		fail("traced run: %v", err)
		return res
	}
	for _, p := range tr.Problems {
		fail("traced run: %s", p)
	}

	if layers {
		values := tr.Layers
		values["simtime.host_ns_per_event"] = median(func(r timedRecord) float64 { return calibrated(r.RunS, r.RefS) * 1e9 / float64(max(r.Events, 1)) })
		values["host.wall_sim_s_per_s"] = median(func(r timedRecord) float64 { return r.SimS / r.RunS })
		values["host.wall_setup_s"] = median(func(r timedRecord) float64 { return r.SetupS })
		values["host.ref_kernel_ms"] = median(func(r timedRecord) float64 { return r.RefS * 1e3 })
		setMetrics(res, perLayerMetrics(), values)
		return res
	}
	perPkt := func(n, pkts uint64) float64 { return float64(n) / float64(max(pkts, 1)) }
	setMetrics(res, endToEndMetrics, map[string]float64{
		"sim_s_per_s":         median(func(r timedRecord) float64 { return r.SimS / calibrated(r.RunS, r.RefS) }),
		"setup_s":             median(func(r timedRecord) float64 { return calibrated(r.SetupS, r.RefS) }),
		"peak_rss_mb":         median(func(r timedRecord) float64 { return r.peakRSSMB }),
		"allocs_per_pkt":      median(func(r timedRecord) float64 { return perPkt(r.Mallocs, r.RxDelivered) }),
		"alloc_bytes_per_pkt": median(func(r timedRecord) float64 { return perPkt(r.AllocBytes, r.RxDelivered) }),
		"tx_gbps":             median(func(r timedRecord) float64 { return r.TxGbps }),
		"lat_p50_us":          median(func(r timedRecord) float64 { return r.LatP50Us }),
		"lat_p99_us":          median(func(r timedRecord) float64 { return r.LatP99Us }),
		"lat_p999_us":         median(func(r timedRecord) float64 { return r.LatP999Us }),
		"delivered_ratio":     median(func(r timedRecord) float64 { return 1 - r.LossRatio }),
	})
	return res
}

func setMetrics(res *result, defs []metricDef, values map[string]float64) {
	for _, m := range defs {
		res.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
}

func runSeconds(runs []timedRecord) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.RunS
	}
	return v
}

// spawn runs this binary again with args, decodes its JSON record into out
// and returns the child's peak RSS in MiB. The child's standard error is
// kept and shown only when it fails.
func spawn(out any, stderr io.Writer, args ...string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var so, se bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &so, &se
	if err := cmd.Run(); err != nil {
		stderr.Write(se.Bytes())
		return 0, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(so.Bytes(), out); err != nil {
		return 0, fmt.Errorf("child %v: decoding its record: %w", args, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for child process")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
