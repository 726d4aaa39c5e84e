package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nba/internal/core"
	"nba/internal/netio"
	"nba/internal/packet"
	"nba/internal/trace"
)

// pinnedDigests maps each workload to its traced run's trace digest at
// defaultSeed. A change of behaviour changes the digest; refresh the file
// deliberately when a workload is meant to change.
//
//go:embed digests.json
var pinnedDigestsJSON []byte

func pinnedDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(pinnedDigestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[workload], nil
}

// traceMask selects the event kinds the traced run aggregates: element
// batches (cycles per class), the control loops (ALB steps, governor
// levels, fallbacks, fault and integrity events). Per-packet RX and engine
// dispatch events are left out; their counts come from the Report and the
// engine.
var traceMask = trace.MaskOf(
	trace.KindBatch, trace.KindLBUpdate, trace.KindOverloadLevel, trace.KindOverloadBias,
	trace.KindFallback, trace.KindFaultInject, trace.KindFaultRecover,
	trace.KindIntegrityCheck, trace.KindIntegrityMismatch, trace.KindIntegrityQuarantine, trace.KindIntegrityDemote,
)

type tracedOptions struct {
	// expectFingerprint is the untraced runs' Report fingerprint.
	expectFingerprint string
	// untracedRunS is the untraced runs' median Run seconds.
	untracedRunS float64
	// layers adds the CPU profile, the generator decorator and the replays.
	layers   bool
	traceDir string
}

// tracedResult is the traced run's record.
type tracedResult struct {
	Fingerprint string             `json:"fingerprint"`
	Digest      string             `json:"digest"`
	Problems    []string           `json:"problems,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// span is one host-time interval of the traced run, in nanoseconds from
// the run's start.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name, parent string, start, end time.Time) {
	l.spans = append(l.spans, span{name, parent, start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()})
}

// fillSampleEvery is the decorator's timing stride: reading the host clock
// around every Fill would cost as much as a small Fill itself.
const fillSampleEvery = 16

// fillStats accumulates the decorator's counts across all generators.
type fillStats struct {
	calls, timed, ns int64
}

// fillTimer decorates a netio.Generator: it counts every Fill and times
// every fillSampleEvery-th one on the host clock.
type fillTimer struct {
	inner netio.Generator
	st    *fillStats
}

func (g fillTimer) Fill(p *packet.Packet, port int, seq uint64) {
	g.st.calls++
	if g.st.calls%fillSampleEvery != 0 {
		g.inner.Fill(p, port, seq)
		return
	}
	t := time.Now()
	g.inner.Fill(p, port, seq)
	g.st.ns += time.Since(t).Nanoseconds()
	g.st.timed++
}

func (g fillTimer) MeanFrameLen() float64 { return g.inner.MeanFrameLen() }

// tracedChild runs the workload once more with a tracer attached (and, for
// the per-layer metrics, the generator decorator and a CPU profile around
// Run), checks it against the untraced runs and, with layers, replays the
// apps' exported functions.
func tracedChild(w *workload, seed uint64, opts tracedOptions) (*tracedResult, error) {
	log := &spanLog{origin: time.Now()}
	var fills fillStats
	var profile bytes.Buffer
	capacity := w.traceCapacity
	var e *execution
	var tr *trace.Tracer
	for {
		cfg, err := w.config(seed)
		if err != nil {
			return nil, err
		}
		tr = trace.New(trace.Options{Capacity: capacity, Mask: traceMask, CheckpointInterval: -1})
		cfg.Tracer = tr
		var around func(bool) error
		if opts.layers {
			fills = fillStats{}
			decorate(&cfg, &fills)
			profile.Reset()
			around = func(start bool) error {
				if !start {
					pprof.StopCPUProfile()
					return nil
				}
				// A finer sampling rate than the default 100 Hz; the rate
				// must be set before StartCPUProfile, which then keeps it.
				runtime.SetCPUProfileRate(500)
				return pprof.StartCPUProfile(&profile)
			}
		}
		if e, err = execute(cfg, around); err != nil {
			return nil, err
		}
		if tr.Dropped() == 0 {
			break
		}
		// The ring was too small to keep every event: run again with room
		// for all of them (the run is deterministic, so the total is exact).
		capacity = int(tr.Total())
	}
	log.add("setup", "traced", e.setupStart, e.runStart)
	log.add("run", "traced", e.runStart, e.runEnd)

	fp, err := fingerprint(e.rep)
	if err != nil {
		return nil, err
	}
	res := &tracedResult{Fingerprint: fp, Digest: tr.Digest(), Problems: checkConservation(e.rep)}
	res.Problems = append(res.Problems, checkIdentity(w.name, seed, fp, opts.expectFingerprint, res.Digest)...)

	res.Layers = aggregate(w, e, tr)
	if opts.layers {
		res.Layers["gen.fill_calls"] = float64(fills.calls)
		res.Layers["gen.fill_ns_per_pkt"] = float64(fills.ns) / float64(max(fills.timed, 1))
		res.Layers["trace.overhead_ratio"] = e.runSeconds() / opts.untracedRunS
		shares, err := hostShares(profile.Bytes())
		if err != nil {
			return nil, err
		}
		for _, l := range hostLayers {
			res.Layers[l+".host_share"] = shares[l]
		}
		cfg, err := w.config(seed)
		if err != nil {
			return nil, err
		}
		replayStart := time.Now()
		reps, err := replayLayers(w, cfg, log)
		if err != nil {
			return nil, err
		}
		log.add("replay", "traced", replayStart, time.Now())
		for k, v := range reps.metrics {
			res.Layers[k] = v
		}
		if err := writeTraceFile(opts.traceDir, w, seed, res, log, reps.ops); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkIdentity compares the traced run with the untraced runs (Report
// fingerprint) and, at the default seed, with the pinned trace digest.
func checkIdentity(workload string, seed uint64, fp, expectFP, digest string) []string {
	var problems []string
	if expectFP != "" && fp != expectFP {
		problems = append(problems, fmt.Sprintf("traced report fingerprint %s differs from the untraced runs' %s", fp, expectFP))
	}
	if seed != defaultSeed {
		return problems
	}
	pinned, err := pinnedDigest(workload)
	if err != nil {
		return append(problems, err.Error())
	}
	if digest != pinned {
		problems = append(problems, fmt.Sprintf("trace digest %s, pinned %q: workload changed: refresh BENCHMARK.json deliberately (digests in perfbench/digests.json)", digest, pinned))
	}
	return problems
}

// decorate wraps every generator of the configuration in a fillTimer.
func decorate(cfg *core.Config, st *fillStats) {
	if cfg.Generator != nil {
		cfg.Generator = fillTimer{cfg.Generator, st}
	}
	cfg.Tenants = append([]core.Tenant(nil), cfg.Tenants...)
	for i := range cfg.Tenants {
		if cfg.Tenants[i].Generator != nil {
			cfg.Tenants[i].Generator = fillTimer{cfg.Tenants[i].Generator, st}
		}
	}
}

// aggregate reads the per-layer counters out of the Report, the engine and
// the trace.
func aggregate(w *workload, e *execution, tr *trace.Tracer) map[string]float64 {
	rep := e.rep
	m := map[string]float64{
		"netio.rx_delivered":         float64(rep.RxDelivered),
		"netio.rx_dropped":           float64(rep.RxDropped),
		"netio.rx_backlog_hwm":       float64(rep.RxBacklogHWM),
		"mempool.alloc_failed":       float64(rep.AllocFailed),
		"mempool.outstanding_end":    float64(rep.PoolOutstanding),
		"graph.drops":                float64(rep.GraphDrops),
		"offload.pkts":               float64(rep.OffloadedPackets),
		"offload.fallback_pkts":      float64(rep.FallbackPackets),
		"gpu.rejected_tasks":         float64(rep.RejectedTasks),
		"lb.final_w":                 rep.FinalW,
		"overload.shed_pkts":         float64(rep.ShedPackets),
		"overload.peak_level":        float64(rep.OverloadPeak),
		"fault.failed_tasks":         float64(rep.FailedTasks),
		"fault.timed_out_tasks":      float64(rep.TimedOutTasks),
		"integrity.checks":           float64(rep.IntegrityChecks),
		"integrity.mismatches":       float64(rep.CorruptionDetected),
		"integrity.quarantined_pkts": float64(rep.QuarantinedPackets),
		"simtime.events":             float64(e.sys.Engine().Fired),
		"trace.dropped_events":       float64(tr.Dropped()),
		"stats.lat_samples":          float64(rep.Latency.Count()),
	}
	for _, st := range rep.NodeStats {
		m["graph.splits"] += float64(st.Splits)
	}
	for key, st := range rep.NodeStats {
		m["element."+classOf(key)+".processed"] += float64(st.Processed)
	}

	var tasks, pkts, h2d uint64
	var kernel, copyBusy float64
	for _, d := range rep.DeviceStats {
		tasks += d.Tasks
		pkts += d.Packets
		h2d += d.H2DBytes
		kernel += d.KernelBusy.Seconds()
		copyBusy += d.CopyBusy.Seconds()
		m["gpu.max_queue_wait_us"] = max(m["gpu.max_queue_wait_us"], d.MaxQueueWait.Micros())
	}
	span := e.sys.Engine().Now().Seconds() * float64(max(len(rep.DeviceStats), 1))
	m["gpu.tasks"] = float64(tasks)
	m["gpu.kernel_busy_frac"] = kernel / span
	m["gpu.copy_busy_frac"] = copyBusy / span
	if tasks > 0 {
		m["offload.pkts_per_task"] = float64(pkts) / float64(tasks)
	}
	if pkts > 0 {
		m["gpu.h2d_bytes_per_pkt"] = float64(h2d) / float64(pkts)
	}

	for i, t := range rep.Tenants {
		name := t.Name
		if name == "" {
			name = w.apps[i]
		}
		m["tenant."+name+".tx_gbps"] = t.TxGbps
		m["tenant."+name+".lat_p999_us"] = percentileUs(&t.Latency, 99.9)
	}

	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindBatch:
			m["graph.batches"]++
			m["element."+classOf(ev.Name)+".cycles"] += float64(ev.B)
		case trace.KindLBUpdate:
			m["lb.updates"]++
		}
	}
	return m
}

// classOf maps a node name ("ipv4/IPLookup@4", "IPLookup@4") to its
// element class.
func classOf(node string) string {
	if i := strings.LastIndexByte(node, '/'); i >= 0 {
		node = node[i+1:]
	}
	if i := strings.IndexByte(node, '@'); i >= 0 {
		node = node[:i]
	}
	return node
}

// writeTraceFile writes the traced run's spans, layer counters and replay
// timings as one JSON document.
func writeTraceFile(dir string, w *workload, seed uint64, res *tracedResult, log *spanLog, ops []replayOp) error {
	end := time.Now()
	log.add("traced", "", log.origin, end)
	doc := struct {
		Workload    string             `json:"workload"`
		Seed        uint64             `json:"seed"`
		Digest      string             `json:"digest"`
		Fingerprint string             `json:"fingerprint"`
		Spans       []span             `json:"spans"`
		Layers      map[string]float64 `json:"layers"`
		Replays     []replayOp         `json:"replays"`
	}{w.name, seed, res.Digest, res.Fingerprint, log.spans, res.Layers, ops}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), append(b, '\n'), 0o644)
}
