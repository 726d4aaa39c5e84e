// Package overload is the end-to-end overload-control subsystem: it makes
// every datapath stage bounded and backpressure-aware in virtual time.
//
// The paper's adaptive load balancer (§3.4) assumes every stage keeps up on
// average; under sustained overload that assumption breaks and unbounded
// interior queues (device task queues, offload aggregates) silently absorb
// the excess, inflating memory and tail latency instead of degrading
// gracefully. This package provides the three mechanisms the framework
// composes into graceful degradation:
//
//   - Config — the knobs: a device task-queue depth (admission control at
//     gpu.Device.Submit; rejected tasks are rescued on the CPU or shed),
//     CoDel target/interval for the worker-side sojourn shedder, and the
//     governor's window and hysteresis.
//   - CoDel — a deterministic CoDel-style shedder driven entirely by the
//     virtual clock: packets whose RX-ring sojourn stays above the target
//     for a full interval are dropped at increasing rate (the classic
//     interval/sqrt(count) control law) until the standing queue drains.
//     No wall time anywhere, so runs stay bit-reproducible.
//   - Governor — a per-(socket, tenant) state machine reacting to sustained
//     saturation with stepwise graceful degradation: Normal → Trim (shrink
//     the offload aggregation age) → Bias (ratchet the ALB weight bounds
//     toward the uncongested processor) → Shed (admission rejections are
//     dropped instead of rescued), stepping back up after sustained
//     recovery. Its Tick decides, from one window's saturation signals,
//     what the datapath must actuate.
//
// Everything here is pure state-machine logic; internal/core gathers the
// signals and actuates the decisions, internal/gpu enforces admission and
// internal/lb holds the weight bounds.
package overload

import (
	"math"

	"nba/internal/simtime"
)

// Config arms the overload-control subsystem for a run. The zero value of
// each field selects its default; negative CoDelTarget disables the sojourn
// shedder and non-positive DeviceQueueDepth leaves the device queue
// unbounded.
type Config struct {
	// DeviceQueueDepth bounds a device's task queue (scheduled + parked
	// tasks). Submissions beyond it are refused before any accounting;
	// the worker rescues the aggregate on the CPU, or sheds it when the
	// governor has reached LevelShed. Default 64; negative = unbounded.
	DeviceQueueDepth int
	// CoDelTarget is the acceptable standing RX sojourn. A polled packet
	// whose queueing delay stayed above the target for a full interval is
	// shed ahead of pipeline processing. Default 50 µs; negative disables.
	CoDelTarget simtime.Time
	// CoDelInterval is the CoDel control interval. Default 10 × target.
	CoDelInterval simtime.Time
	// GovernorWindow is the saturation-observation cadence of the governor.
	// Default 250 µs.
	GovernorWindow simtime.Time
	// StepDown is how many consecutive saturated windows trigger one level
	// of degradation; StepUp how many consecutive clear windows recover one
	// level. The asymmetry (default 2 down, 8 up) gives the boundary
	// hysteresis the no-oscillation property tests pin.
	StepDown int
	StepUp   int
	// TrimAgeScale scales the offload aggregation age at LevelTrim and
	// beyond (default 0.5: aggregates flush at half their nominal age).
	TrimAgeScale float64
	// BiasStep is how far each saturated window at LevelBias ratchets the
	// ALB weight bound toward the uncongested processor. Default 0.1.
	BiasStep float64
}

// WithDefaults fills unset fields, returning a copy.
func (c Config) WithDefaults() Config {
	if c.DeviceQueueDepth == 0 {
		c.DeviceQueueDepth = 64
	}
	if c.DeviceQueueDepth < 0 {
		c.DeviceQueueDepth = 0 // unbounded
	}
	if c.CoDelTarget == 0 {
		c.CoDelTarget = 50 * simtime.Microsecond
	}
	if c.CoDelTarget < 0 {
		c.CoDelTarget = 0 // disabled
	}
	if c.CoDelInterval <= 0 {
		c.CoDelInterval = 10 * c.CoDelTarget
	}
	if c.GovernorWindow <= 0 {
		c.GovernorWindow = 250 * simtime.Microsecond
	}
	if c.StepDown <= 0 {
		c.StepDown = 2
	}
	if c.StepUp <= 0 {
		c.StepUp = 8
	}
	if c.TrimAgeScale <= 0 || c.TrimAgeScale > 1 {
		c.TrimAgeScale = 0.5
	}
	if c.BiasStep <= 0 {
		c.BiasStep = 0.1
	}
	return c
}

// Defaults returns a fully-defaulted config, the canonical "armed" value.
func Defaults() *Config {
	c := Config{}.WithDefaults()
	return &c
}

// Level is the governor's degradation state, ordered by severity.
type Level int

const (
	// LevelNormal: no reaction; all mechanisms at nominal settings.
	LevelNormal Level = iota
	// LevelTrim: offload aggregates flush at TrimAgeScale of their nominal
	// age, so packets stop maturing behind a congested device.
	LevelTrim
	// LevelBias: additionally, the ALB weight bounds ratchet toward the
	// uncongested processor each saturated window.
	LevelBias
	// LevelShed: additionally, admission-rejected aggregates are dropped
	// (accounted as shed) instead of rescued on the CPU.
	LevelShed
)

func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelTrim:
		return "trim"
	case LevelBias:
		return "bias"
	case LevelShed:
		return "shed"
	default:
		return "unknown"
	}
}

// Governor is the per-(socket, tenant) overload state machine and the
// policy it drives. It degrades one level after StepDown consecutive
// saturated windows and recovers one level after StepUp consecutive clear
// windows; either streak resets on the opposite observation, so an
// alternating signal at the boundary holds the level steady instead of
// oscillating. Tick turns each window's signals into the Step the datapath
// actuates.
type Governor struct {
	cfg Config

	level       Level
	peak        Level
	satStreak   int
	clearStreak int

	// prevDrops / prevShed are the cumulative CPU-side counters at the
	// previous window; growth since then is CPU-side saturation.
	prevDrops, prevShed uint64
}

// NewGovernor creates a governor with the config's hysteresis and policy.
func NewGovernor(cfg Config) *Governor {
	return &Governor{cfg: cfg.WithDefaults()}
}

// Step is what one governor window asks the datapath to actuate.
type Step struct {
	// Level is the level after the window, Prev the level before it.
	Level, Prev Level
	// DeviceSat and CPUSat are the window's saturation signals.
	DeviceSat, CPUSat bool
	// Changed marks a level transition; AgeScale is then the offload
	// aggregation-age scale for the tenant's lanes (TrimAgeScale at
	// LevelTrim and above, 1 below).
	Changed  bool
	AgeScale float64
	// Release asks for the tenant's ALB weight bounds to be released: the
	// tenant left LevelBias on the way up.
	Release bool
	// Ratchet asks for the bounds to move one BiasStep toward the
	// uncongested processor: the ceiling down toward the CPU when only the
	// device side is saturated, the floor up toward the device when only
	// the CPU side is.
	Ratchet bool
}

// Tick folds one governor window. devSat reports a saturated device on the
// tenant's socket; rxDrops and shed are the tenant's cumulative RX drops and
// overload sheds on that socket, whose growth since the previous window is
// the CPU-side signal.
func (g *Governor) Tick(devSat bool, rxDrops, shed uint64) Step {
	cpuSat := rxDrops > g.prevDrops || shed > g.prevShed
	g.prevDrops, g.prevShed = rxDrops, shed
	st := Step{Prev: g.level, DeviceSat: devSat, CPUSat: cpuSat}
	st.Level, st.Changed = g.Observe(devSat || cpuSat)
	if st.Changed {
		st.AgeScale = 1
		if st.Level >= LevelTrim {
			st.AgeScale = g.cfg.TrimAgeScale
		}
		st.Release = st.Level < LevelBias && st.Prev >= LevelBias
	}
	st.Ratchet = st.Level >= LevelBias && devSat != cpuSat
	return st
}

// Level returns the current degradation level.
func (g *Governor) Level() Level { return g.level }

// Peak returns the most severe level reached so far.
func (g *Governor) Peak() Level { return g.peak }

// Observe folds one saturation observation (one governor window) and
// returns the resulting level and whether this observation changed it.
func (g *Governor) Observe(saturated bool) (Level, bool) {
	if saturated {
		g.clearStreak = 0
		g.satStreak++
		if g.satStreak >= g.cfg.StepDown && g.level < LevelShed {
			g.satStreak = 0
			g.level++
			if g.level > g.peak {
				g.peak = g.level
			}
			return g.level, true
		}
		return g.level, false
	}
	g.satStreak = 0
	g.clearStreak++
	if g.clearStreak >= g.cfg.StepUp && g.level > LevelNormal {
		g.clearStreak = 0
		g.level--
		return g.level, true
	}
	return g.level, false
}

// CoDel is a deterministic CoDel-style shedder on the virtual clock (the
// classic algorithm, with packet sojourn supplied by the caller): once the
// observed sojourn has stayed at or above Target for a full Interval, it
// starts dropping, with successive drops spaced Interval/sqrt(count) apart
// so the drop rate grows until the standing queue drains below Target.
//
// math.Sqrt is exactly specified by IEEE 754, so the shedder is bit-stable
// across platforms — it introduces no nondeterminism into the run.
type CoDel struct {
	// Target / Interval are the control parameters (Config.CoDelTarget /
	// CoDelInterval). A zero Target never drops.
	Target   simtime.Time
	Interval simtime.Time

	firstAbove simtime.Time // when sojourn first exceeded Target; 0 = below
	dropNext   simtime.Time // next scheduled drop while in dropping state
	dropping   bool
	count      int // drops in the current dropping episode
}

// ShouldDrop decides the fate of one packet with the given queueing sojourn
// observed at virtual time now. It must be called in arrival order.
func (c *CoDel) ShouldDrop(now, sojourn simtime.Time) bool {
	if c.Target <= 0 {
		return false
	}
	if sojourn < c.Target {
		// Below target: leave the dropping state and restart the grace
		// interval from scratch.
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if c.firstAbove == 0 {
		// First packet above target: arm the interval, drop nothing yet.
		c.firstAbove = now + c.Interval
		return false
	}
	if !c.dropping {
		if now < c.firstAbove {
			return false // still inside the grace interval
		}
		// Sojourn stayed above target for a full interval: start dropping.
		// Resume the previous episode's drop rate when the queue rebuilt
		// quickly (within 8 intervals), per the reference algorithm.
		c.dropping = true
		if c.count > 2 && now-c.dropNext < 8*c.Interval {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.dropNext = c.controlLaw(now)
		return true
	}
	if now >= c.dropNext {
		c.count++
		c.dropNext = c.controlLaw(c.dropNext)
		return true
	}
	return false
}

// controlLaw spaces the next drop Interval/sqrt(count) after base.
func (c *CoDel) controlLaw(base simtime.Time) simtime.Time {
	return base + simtime.Time(float64(c.Interval)/math.Sqrt(float64(c.count)))
}
