// Package integrity is the silent-data-corruption detection and containment
// subsystem: deterministic sentinel re-execution of sampled offloaded
// aggregates, quarantine of mismatched batches, and per-device escalation.
//
// The threat model is a co-processor that completes tasks on time but
// returns wrong bytes (internal/fault's DeviceCorrupt events model it). The
// framework cannot eyeball device results, but it *can* re-run the same
// functional closure on the host — the simulation's device kernels are the
// elements' ProcessOffloaded methods, which are pure over (packet bytes,
// annotations, results) — and compare digests. The sentinel does exactly
// that for a configured fraction of aggregates:
//
//	flush     — the worker draws a per-aggregate coin from a seeded
//	            per-worker stream; sampled aggregates get a byte-level
//	            snapshot (a Shadow) taken before submission;
//	complete  — after the device's Execute ran, the worker re-executes the
//	            offloaded chain on the shadow copy and compares FNV-1a
//	            digests over (mask, result, length, payload, annotations);
//	mismatch  — the aggregate is quarantined: counted in a dedicated drop
//	            class (QuarantinedPackets), never transmitted, and the
//	            device's EWMA corruption score is bumped.
//
// Escalation reuses the machinery the framework already trusts: a score
// crossing DemoteScore ratchets the ALB weight bounds toward the CPU
// (lb.Controller.SetWBounds, the overload governor's bias mechanism); a
// score crossing FailScore fail-stops the device through its fault health
// state, and a recovery probe re-admits it after ProbeAfter.
//
// Everything is deterministic: the sampling stream is seeded from the run
// seed, re-execution happens at task-completion dispatch on the serial
// virtual clock, and a nil Config disarms the whole subsystem with zero
// extra events (the disarm contract — golden digests are byte-identical).
package integrity

import (
	"fmt"

	"nba/internal/batch"
	"nba/internal/packet"
	"nba/internal/rng"
	"nba/internal/simtime"
)

// Config arms the integrity subsystem (core.Config.Integrity). A nil Config
// disarms it entirely.
type Config struct {
	// SampleRate is the fraction of offloaded aggregates the sentinel
	// re-executes on the CPU, in [0, 1]. 0 arms the subsystem without
	// sampling (accounting fields exist but stay zero); 1 checks every
	// aggregate.
	SampleRate float64
	// Alpha is the EWMA smoothing factor of the per-device corruption
	// score: score = Alpha*observation + (1-Alpha)*score, observation 1 on
	// mismatch, 0 on match. Default 0.5.
	Alpha float64
	// DemoteScore is the score at which the device is demoted: the ALB
	// weight bounds are ratcheted toward the CPU by DemoteStep. Default 0.4
	// (first mismatch at the default Alpha).
	DemoteScore float64
	// FailScore is the score at which the device is fail-stopped through
	// its fault health state. Default 0.85 (third consecutive mismatch at
	// the default Alpha). Must be >= DemoteScore.
	FailScore float64
	// DemoteStep is how far each demotion ratchets the ALB weight upper
	// bound down (the overload governor's bias mechanism). Default 0.25.
	DemoteStep float64
	// ProbeAfter is the virtual-time delay after a fail-stop before the
	// recovery probe re-admits the device with a reset score. Default
	// 500µs.
	ProbeAfter simtime.Time
}

// WithDefaults returns a copy with zero fields defaulted.
func (c *Config) WithDefaults() *Config {
	out := *c
	if out.Alpha == 0 {
		out.Alpha = 0.5
	}
	if out.DemoteScore == 0 {
		out.DemoteScore = 0.4
	}
	if out.FailScore == 0 {
		out.FailScore = 0.85
	}
	if out.DemoteStep == 0 {
		out.DemoteStep = 0.25
	}
	if out.ProbeAfter == 0 {
		out.ProbeAfter = 500 * simtime.Microsecond
	}
	return &out
}

// Validate rejects configurations the subsystem cannot honour.
func (c *Config) Validate() error {
	if c.SampleRate < 0 || c.SampleRate > 1 {
		return fmt.Errorf("integrity: sample rate %v outside [0,1]", c.SampleRate)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("integrity: EWMA alpha %v outside (0,1]", c.Alpha)
	}
	if c.DemoteScore <= 0 || c.DemoteScore > 1 {
		return fmt.Errorf("integrity: demote score %v outside (0,1]", c.DemoteScore)
	}
	if c.FailScore < c.DemoteScore || c.FailScore > 1 {
		return fmt.Errorf("integrity: fail score %v outside [demote score %v, 1]", c.FailScore, c.DemoteScore)
	}
	if c.DemoteStep <= 0 || c.DemoteStep > 1 {
		return fmt.Errorf("integrity: demote step %v outside (0,1]", c.DemoteStep)
	}
	if c.ProbeAfter <= 0 {
		return fmt.Errorf("integrity: probe delay %v must be positive", c.ProbeAfter)
	}
	return nil
}

// Shadow is a byte-level snapshot of an aggregate's batches taken before
// submission, re-executed on the CPU at completion time. Shadow packets and
// batches come from the sentinel's private free-lists, not the run's
// accounted mempools: shadows are observer state, invisible to pool-drain
// accounting.
type Shadow struct {
	batches []*batch.Batch
	srcs    []*batch.Batch
}

// Batches returns the shadow copies, parallel to the snapshotted sources.
func (sh *Shadow) Batches() []*batch.Batch { return sh.batches }

// Sentinel is one worker's re-execution sampler. A nil *Sentinel is a valid
// disarmed sentinel: every method is a cheap no-op, mirroring the
// trace.Tracer contract, so worker call sites need no conditionals.
type Sentinel struct {
	cfg *Config
	r   *rng.Rand

	freeB  []*batch.Batch
	freeP  []*packet.Packet
	freeSh []*Shadow

	// Checks / Mismatches count sentinel comparisons and digest
	// disagreements for this worker.
	Checks     uint64
	Mismatches uint64
}

// NewSentinel creates a sentinel drawing its sampling coins from r (a
// seeded per-worker stream, so sampling is part of the run identity).
func NewSentinel(cfg *Config, r *rng.Rand) *Sentinel {
	return &Sentinel{cfg: cfg, r: r}
}

// Sample draws the per-aggregate sampling coin. Safe on a nil sentinel
// (never samples, draws nothing).
//
//nba:hotpath
func (s *Sentinel) Sample() bool {
	if s == nil || s.cfg.SampleRate == 0 {
		return false
	}
	return s.r.Float64() < s.cfg.SampleRate
}

// Snapshot copies the live slots of the aggregate's batches — payload,
// length, annotations, results, mask pattern — into shadow batches. The
// returned Shadow must be handed back via Verify or Release.
func (s *Sentinel) Snapshot(batches []*batch.Batch) *Shadow {
	sh := s.getShadow()
	for _, src := range batches {
		cp := s.getBatch()
		for i := 0; i < src.Count(); i++ {
			p := s.getPacket()
			orig := src.Packet(i)
			if orig != nil {
				p.CopyFrom(orig.Data())
				p.Anno = orig.Anno
			}
			cp.Add(p)
			cp.SetResult(i, src.Result(i))
			if src.IsMasked(i) {
				cp.Mask(i)
			}
		}
		sh.batches = append(sh.batches, cp)
		sh.srcs = append(sh.srcs, src)
	}
	return sh
}

// Verify re-executes the offloaded chain on the shadow via rerun (the
// caller runs its ProcessOffloaded chain over each shadow batch) and
// compares digests against the device's results. The shadow is released
// either way. Returns true when the digests agree.
func (s *Sentinel) Verify(sh *Shadow, rerun func(*batch.Batch)) bool {
	s.Checks++ //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	for _, b := range sh.batches {
		rerun(b)
	}
	match := true
	for i, b := range sh.batches {
		if digestBatch(sh.srcs[i]) != digestBatch(b) {
			match = false
			break
		}
	}
	s.Release(sh)
	if !match {
		s.Mismatches++ //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	}
	return match
}

// Release returns a shadow's packets and batches to the free-lists without
// verifying (used when the task never executed on the device: CPU fallback,
// admission refusal, device failure).
func (s *Sentinel) Release(sh *Shadow) {
	if s == nil || sh == nil {
		return
	}
	for _, b := range sh.batches {
		for i := 0; i < b.Count(); i++ {
			p := b.Packet(i)
			p.Reset()
			s.freeP = append(s.freeP, p)
		}
		b.Reset()
		s.freeB = append(s.freeB, b)
	}
	sh.batches = sh.batches[:0]
	sh.srcs = sh.srcs[:0]
	s.freeSh = append(s.freeSh, sh)
}

func (s *Sentinel) getShadow() *Shadow {
	if n := len(s.freeSh); n > 0 {
		sh := s.freeSh[n-1]
		s.freeSh = s.freeSh[:n-1]
		return sh
	}
	return &Shadow{}
}

func (s *Sentinel) getBatch() *batch.Batch {
	if n := len(s.freeB); n > 0 {
		b := s.freeB[n-1]
		s.freeB = s.freeB[:n-1]
		return b
	}
	return &batch.Batch{}
}

func (s *Sentinel) getPacket() *packet.Packet {
	if n := len(s.freeP); n > 0 {
		p := s.freeP[n-1]
		s.freeP = s.freeP[:n-1]
		return p
	}
	return &packet.Packet{}
}

// digestBatch folds one batch's observable processing state — per-slot mask
// bit, result, frame length, payload bytes and annotations — into an FNV-1a
// digest. Two batches that digest equal produced indistinguishable results.
//
//nba:hotpath
func digestBatch(b *batch.Batch) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < b.Count(); i++ {
		if b.IsMasked(i) {
			h ^= 0xa5
			h *= prime64
			continue
		}
		h = fnvWord(h, uint64(int64(b.Result(i))))
		p := b.Packet(i)
		h = fnvWord(h, uint64(p.Length()))
		for _, by := range p.Data() {
			h ^= uint64(by)
			h *= prime64
		}
		for _, a := range p.Anno {
			h = fnvWord(h, a)
		}
	}
	return h
}

// fnvWord folds one 64-bit word into an FNV-1a digest, little-endian.
//
//nba:hotpath
func fnvWord(h, v uint64) uint64 {
	const prime64 = 0x100000001b3
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

// Action is what the tracker asks the system to do after an observation.
type Action uint8

const (
	// ActionNone requires no escalation.
	ActionNone Action = iota
	// ActionDemote ratchets the device's ALB weight bounds toward the CPU.
	ActionDemote
	// ActionFailStop fail-stops the device through its fault health state
	// and schedules a recovery probe.
	ActionFailStop
)

// Tracker keeps the per-device EWMA corruption scores and owns the
// escalation ladder: it decides demotion and fail-stop, remembers which
// devices it demoted or fail-stopped, re-admits them at the recovery probe,
// and records when the run saw its first mismatch. One tracker serves the
// whole run (device indices are global).
type Tracker struct {
	cfg     *Config
	scores  []float64
	consec  []int
	demoted []bool
	failed  []bool

	mismatchSeen  bool
	firstMismatch simtime.Time
}

// NewTracker creates a tracker for ndev devices.
func NewTracker(cfg *Config, ndev int) *Tracker {
	return &Tracker{
		cfg:     cfg,
		scores:  make([]float64, ndev),
		consec:  make([]int, ndev),
		demoted: make([]bool, ndev),
		failed:  make([]bool, ndev),
	}
}

// Observe folds one sentinel check result, made at virtual time now, into
// dev's score and returns the escalation the system must apply; after
// ActionFailStop the caller runs Probe once the config's ProbeAfter passed.
// Observations against a fail-stopped device (completions already in flight
// when it was stopped) count toward the first mismatch but not the score.
func (t *Tracker) Observe(dev int, mismatch bool, now simtime.Time) Action {
	if mismatch && !t.mismatchSeen {
		t.mismatchSeen = true
		t.firstMismatch = now
	}
	if t.failed[dev] {
		return ActionNone
	}
	x := 0.0
	if mismatch {
		x = 1.0
		t.consec[dev]++
	} else {
		t.consec[dev] = 0
	}
	t.scores[dev] = t.cfg.Alpha*x + (1-t.cfg.Alpha)*t.scores[dev]
	switch {
	case t.scores[dev] >= t.cfg.FailScore:
		t.failed[dev] = true
		return ActionFailStop
	case t.scores[dev] >= t.cfg.DemoteScore && !t.demoted[dev]:
		t.demoted[dev] = true
		return ActionDemote
	}
	return ActionNone
}

// Score returns dev's current EWMA corruption score.
func (t *Tracker) Score(dev int) float64 { return t.scores[dev] }

// Consecutive returns dev's current run of consecutive mismatches.
func (t *Tracker) Consecutive(dev int) int { return t.consec[dev] }

// FailStopped reports whether dev is currently fail-stopped by the tracker.
func (t *Tracker) FailStopped(dev int) bool { return t.failed[dev] }

// FirstMismatchAt returns the virtual time of the run's first mismatch, zero
// when there was none.
func (t *Tracker) FirstMismatchAt() simtime.Time { return t.firstMismatch }

// Probe is the recovery probe of a fail-stopped device: it starts dev over
// with a clean score and reports true, telling the caller to return the
// device to service and release its weight bounds. A device no longer
// fail-stopped is left alone and Probe reports false.
func (t *Tracker) Probe(dev int) bool {
	if !t.failed[dev] {
		return false
	}
	t.scores[dev] = 0
	t.consec[dev] = 0
	t.demoted[dev] = false
	t.failed[dev] = false
	return true
}
