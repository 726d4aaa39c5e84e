package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"nba/internal/core"
	"nba/internal/stats"
)

// execution is one NewSystem + Run, timed from outside.
type execution struct {
	sys *core.System
	rep *core.Report
	// setupStart, runStart and runEnd bracket core.NewSystem and
	// (*core.System).Run on the host clock.
	setupStart, runStart, runEnd time.Time
	// mallocs and allocBytes are the heap allocations made during Run.
	mallocs, allocBytes uint64
}

func (e *execution) setupSeconds() float64 { return e.runStart.Sub(e.setupStart).Seconds() }
func (e *execution) runSeconds() float64   { return e.runEnd.Sub(e.runStart).Seconds() }

// execute builds and runs one system. aroundRun, when non-nil, is called
// with true just before Run and with false just after it (the traced run
// starts and stops its CPU profile there).
func execute(cfg core.Config, aroundRun func(start bool) error) (*execution, error) {
	runtime.GC()
	e := &execution{setupStart: time.Now()}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("NewSystem: %w", err)
	}
	e.sys = sys
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if aroundRun != nil {
		if err := aroundRun(true); err != nil {
			return nil, err
		}
	}
	e.runStart = time.Now()
	rep, err := sys.Run()
	e.runEnd = time.Now()
	if aroundRun != nil {
		if perr := aroundRun(false); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("Run: %w", err)
	}
	runtime.ReadMemStats(&after)
	e.rep = rep
	e.mallocs = after.Mallocs - before.Mallocs
	e.allocBytes = after.TotalAlloc - before.TotalAlloc
	return e, nil
}

// simResult is what one untraced run reports to the orchestrating process.
type simResult struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// RefS is the reference kernel's time around the run, filled in by
	// the orchestrating process.
	RefS        float64  `json:"ref_s"`
	SimS        float64  `json:"sim_s"`
	Events      uint64   `json:"events"`
	Mallocs     uint64   `json:"mallocs"`
	AllocBytes  uint64   `json:"alloc_bytes"`
	RxDelivered uint64   `json:"rx_delivered"`
	TxGbps      float64  `json:"tx_gbps"`
	LatP50Us    float64  `json:"lat_p50_us"`
	LatP99Us    float64  `json:"lat_p99_us"`
	LatP999Us   float64  `json:"lat_p999_us"`
	LossRatio   float64  `json:"loss_ratio"`
	Fingerprint string   `json:"fingerprint"`
	Problems    []string `json:"problems,omitempty"`
}

// summarize turns an execution into the orchestrator's per-run record,
// including the correctness checks every run must pass.
func summarize(w *workload, e *execution) (*simResult, error) {
	rep := e.rep
	fp, err := fingerprint(rep)
	if err != nil {
		return nil, err
	}
	return &simResult{
		SetupS:      e.setupSeconds(),
		RunS:        e.runSeconds(),
		SimS:        (w.warmup + w.duration).Seconds(),
		Events:      e.sys.Engine().Fired,
		Mallocs:     e.mallocs,
		AllocBytes:  e.allocBytes,
		RxDelivered: rep.RxDelivered,
		TxGbps:      rep.TxGbps,
		LatP50Us:    percentileUs(&rep.Latency, 50),
		LatP99Us:    percentileUs(&rep.Latency, 99),
		LatP999Us:   percentileUs(&rep.Latency, 99.9),
		LossRatio:   lossRatio(rep),
		Fingerprint: fp,
		Problems:    checkConservation(rep),
	}, nil
}

// lossRatio is the share of offered packets the system failed to deliver:
// RX-ring overflow, overload shedding and integrity quarantine. Graph drops
// are the pipeline's intended verdicts and do not count.
func lossRatio(rep *core.Report) float64 {
	offered := rep.RxDelivered + rep.RxDropped
	if offered == 0 {
		return 0
	}
	return float64(rep.RxDropped+rep.ShedPackets+rep.QuarantinedPackets) / float64(offered)
}

// percentileUs interpolates the p-th percentile linearly inside the
// histogram's log bucket that holds it. Hist.Percentile returns the bucket's
// upper edge, which moves in 7.5% steps; interpolation keeps the read-out
// continuous in the workload while staying a pure function of the Report.
func percentileUs(h *stats.Hist, p float64) float64 {
	pts := h.CDF()
	if len(pts) == 0 {
		return 0
	}
	target := p / 100
	lo, loFrac := float64(h.Min()), 0.0
	for _, pt := range pts {
		hi := float64(pt.Latency)
		if pt.Frac >= target {
			if hi > float64(h.Max()) {
				hi = float64(h.Max())
			}
			if hi < lo {
				hi = lo
			}
			v := lo + (hi-lo)*(target-loFrac)/(pt.Frac-loFrac)
			return v / 1e6 // picoseconds to microseconds
		}
		lo, loFrac = hi, pt.Frac
	}
	return float64(h.Max()) / 1e6
}

// checkConservation verifies the drained-run identities globally and per
// tenant: every delivered packet was transmitted, dropped by the graph, shed
// or quarantined, and every packet buffer went back to its pool.
func checkConservation(rep *core.Report) []string {
	var problems []string
	if out := rep.TxPackets + rep.GraphDrops + rep.ShedPackets + rep.QuarantinedPackets; rep.RxDelivered != out {
		problems = append(problems, fmt.Sprintf("conservation: rx %d != tx %d + graph drops %d + shed %d + quarantined %d",
			rep.RxDelivered, rep.TxPackets, rep.GraphDrops, rep.ShedPackets, rep.QuarantinedPackets))
	}
	for _, t := range rep.Tenants {
		if out := t.TxPackets + t.GraphDrops + t.ShedPackets + t.QuarantinedPackets; t.RxDelivered != out {
			problems = append(problems, fmt.Sprintf("conservation: tenant %q rx %d != tx %d + graph drops %d + shed %d + quarantined %d",
				t.Name, t.RxDelivered, t.TxPackets, t.GraphDrops, t.ShedPackets, t.QuarantinedPackets))
		}
	}
	if rep.PoolOutstanding != 0 {
		problems = append(problems, fmt.Sprintf("mempool: %d packets outstanding after drain", rep.PoolOutstanding))
	}
	return problems
}

// histView is the deterministic content of a latency histogram.
type histView struct {
	Count    uint64
	Min, Max int64
	Mean     int64
	CDF      []stats.CDFPoint
}

func viewOf(h *stats.Hist) histView {
	return histView{Count: h.Count(), Min: int64(h.Min()), Max: int64(h.Max()), Mean: int64(h.Mean()), CDF: h.CDF()}
}

// fingerprint hashes the deterministic Report fields: every counter, rate
// and histogram, NodeStats in sorted key order (encoding/json sorts map
// keys). Per-tenant trace digests are excluded because they exist only when
// a tracer is attached, and captured frames because no workload captures.
func fingerprint(rep *core.Report) (string, error) {
	r := *rep
	r.Capture = nil
	r.Tenants = append([]core.TenantReport(nil), rep.Tenants...)
	lat := []histView{viewOf(&rep.Latency)}
	for i := range r.Tenants {
		r.Tenants[i].Digest = ""
		lat = append(lat, viewOf(&rep.Tenants[i].Latency))
	}
	b, err := json.Marshal(struct {
		Report  *core.Report
		Latency []histView
	}{&r, lat})
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
