package fault

import (
	"fmt"

	"nba/internal/rng"
	"nba/internal/simtime"
)

// Profile bounds what RandomPlan may generate. It carries the topology the
// plan must be valid against and the run horizon faults must land inside.
type Profile struct {
	// Horizon is the window fault events are placed in (measurement start
	// to end of run). Must be positive.
	Horizon simtime.Time
	// Devices / Ports / Queues mirror the run topology the plan targets.
	Devices, Ports, Queues int
	// MaxEpisodes caps the number of fault episodes (an episode is one
	// outage/flap/burst window, usually two events). Default 4.
	MaxEpisodes int
	// OpenEnded is the probability that an episode never recovers within
	// the horizon — an outage the run must survive to the end. Default 0.2.
	OpenEnded float64
}

func (p Profile) withDefaults() Profile {
	if p.MaxEpisodes <= 0 {
		p.MaxEpisodes = 4
	}
	if p.OpenEnded == 0 {
		p.OpenEnded = 0.2
	}
	return p
}

// TimeGrid quantises generated event times so plans are stable, diffable
// and shrink to tidy reproducers. reconfig.RandomPlan and the chaos
// shrinker use it too, so same-tick fault+reconfig collisions occur
// naturally in chaos sweeps.
const TimeGrid = 10 * simtime.Microsecond

// overloadMinDur is the minimum duration of a sustained-overload episode:
// long enough (≥ 1 ms) for interior queues to fill and the overload
// governor's windows to observe saturation, not just a transient blip.
const overloadMinDur = simtime.Millisecond

// RandomPlan generates a valid, bounded fault plan from the seeded rng —
// the chaos-search input generator. Plans are valid by construction (each
// target keeps a forward-moving time cursor, windows are paired or
// deliberately open-ended), and validity is re-checked before returning:
// a generator bug is a panic, not a silently skewed search space.
//
// The same (rng state, profile) always yields the same plan, so a chaos
// case is fully identified by its seed.
func RandomPlan(r *rng.Rand, prof Profile) *Plan {
	prof = prof.withDefaults()
	if prof.Horizon <= 0 {
		panic(fmt.Sprintf("fault: RandomPlan horizon %v", prof.Horizon))
	}

	// Per-target cursors: the earliest time the next episode on that target
	// may begin. Keeping cursors strictly forward makes overlap on a single
	// target impossible while still allowing overlapping episodes across
	// targets (a queue flap during a device hang, say).
	devCursor := make([]simtime.Time, prof.Devices)
	queueCursor := make([]simtime.Time, prof.Ports*prof.Queues)
	var rateCursor simtime.Time

	quant := func(t simtime.Time) simtime.Time {
		q := t / TimeGrid * TimeGrid
		if q < 0 {
			q = 0
		}
		return q
	}
	// window picks a start at or after cursor and a duration, both inside
	// the horizon; ok is false when the cursor has run out of room.
	window := func(cursor simtime.Time) (start, end simtime.Time, ok bool) {
		room := prof.Horizon - cursor
		if room < 4*TimeGrid {
			return 0, 0, false
		}
		start = quant(cursor + simtime.Time(r.Float64()*float64(room)*0.5))
		if start < cursor {
			start = cursor
		}
		maxDur := float64(prof.Horizon - start)
		dur := quant(simtime.Time(maxDur * (0.1 + 0.8*r.Float64())))
		if dur < TimeGrid {
			dur = TimeGrid
		}
		return start, start + dur, true
	}

	plan := &Plan{}
	episodes := 1 + r.Intn(prof.MaxEpisodes)
	for e := 0; e < episodes; e++ {
		// Weighted pick over the episode kinds the topology supports.
		kinds := []int{4} // rate burst always possible
		if prof.Devices > 0 {
			kinds = append(kinds, 0, 1, 2, 6)
		}
		if prof.Ports > 0 && prof.Queues > 0 {
			kinds = append(kinds, 3)
		}
		if prof.Horizon >= overloadMinDur+4*TimeGrid {
			kinds = append(kinds, 5) // sustained overload fits the horizon
		}
		switch kinds[r.Intn(len(kinds))] {
		case 0: // fail → recover
			dev := r.Intn(prof.Devices)
			start, end, ok := window(devCursor[dev])
			if !ok {
				continue
			}
			plan.Events = append(plan.Events, Event{At: start, Kind: DeviceFail, Device: dev})
			if r.Bool(prof.OpenEnded) {
				devCursor[dev] = prof.Horizon // stays failed to the end
				continue
			}
			plan.Events = append(plan.Events, Event{At: end, Kind: DeviceRecover, Device: dev})
			devCursor[dev] = end + TimeGrid
		case 1: // hang → recover (open-ended hangs rely on the task timeout)
			dev := r.Intn(prof.Devices)
			start, end, ok := window(devCursor[dev])
			if !ok {
				continue
			}
			plan.Events = append(plan.Events, Event{At: start, Kind: DeviceHang, Device: dev})
			if r.Bool(prof.OpenEnded) {
				devCursor[dev] = prof.Horizon
				continue
			}
			plan.Events = append(plan.Events, Event{At: end, Kind: DeviceRecover, Device: dev})
			devCursor[dev] = end + TimeGrid
		case 2: // slowdown → recover
			dev := r.Intn(prof.Devices)
			start, end, ok := window(devCursor[dev])
			if !ok {
				continue
			}
			factor := 1.5 + r.Float64()*6.5 // 1.5x .. 8x
			plan.Events = append(plan.Events, Event{
				At: start, Kind: DeviceSlowdown, Device: dev,
				KernelFactor: factor, CopyFactor: factor,
			})
			plan.Events = append(plan.Events, Event{At: end, Kind: DeviceRecover, Device: dev})
			devCursor[dev] = end + TimeGrid
		case 3: // queue flap: down → up
			port := r.Intn(prof.Ports)
			queue := r.Intn(prof.Queues)
			qi := port*prof.Queues + queue
			start, end, ok := window(queueCursor[qi])
			if !ok {
				continue
			}
			plan.Events = append(plan.Events, Event{At: start, Kind: RxQueueDown, Port: port, Queue: queue})
			if r.Bool(prof.OpenEnded) {
				queueCursor[qi] = prof.Horizon
				continue
			}
			plan.Events = append(plan.Events, Event{At: end, Kind: RxQueueUp, Port: port, Queue: queue})
			queueCursor[qi] = end + TimeGrid
		case 4: // rate burst or dip, restored at the end of the window
			start, end, ok := window(rateCursor)
			if !ok {
				continue
			}
			var factor float64
			if r.Bool(0.5) {
				factor = 1.25 + r.Float64()*2.75 // burst 1.25x .. 4x
			} else {
				factor = 0.25 + r.Float64()*0.5 // dip 0.25x .. 0.75x
			}
			plan.Events = append(plan.Events, Event{At: start, Kind: RateBurst, RateFactor: factor})
			plan.Events = append(plan.Events, Event{At: end, Kind: RateBurst, RateFactor: 1})
			rateCursor = end + TimeGrid
		case 5: // sustained overload: ≥ 2x offered load for ≥ 1 ms
			room := prof.Horizon - rateCursor
			if room < overloadMinDur+4*TimeGrid {
				continue
			}
			start := quant(rateCursor + simtime.Time(r.Float64()*float64(room-overloadMinDur)*0.5))
			if start < rateCursor {
				start = rateCursor
			}
			extra := float64(prof.Horizon - start - overloadMinDur)
			dur := overloadMinDur + quant(simtime.Time(extra*r.Float64()*0.5))
			factor := 2 + r.Float64()*2 // 2x .. 4x
			plan.Events = append(plan.Events, Event{At: start, Kind: RateBurst, RateFactor: factor})
			plan.Events = append(plan.Events, Event{At: start + dur, Kind: RateBurst, RateFactor: 1})
			rateCursor = start + dur + TimeGrid
		case 6: // silent corruption → recover (sharing the device cursor
			// keeps corruption windows disjoint from outages by construction)
			dev := r.Intn(prof.Devices)
			start, end, ok := window(devCursor[dev])
			if !ok {
				continue
			}
			prob := 0.25 + r.Float64()*0.75  // 0.25 .. 1.0 per aggregate
			pattern := byte(1 + r.Intn(255)) // any nonzero XOR mask
			plan.Events = append(plan.Events, Event{
				At: start, Kind: DeviceCorrupt, Device: dev,
				CorruptProb: prob, FlipPattern: pattern,
			})
			if r.Bool(prof.OpenEnded) {
				devCursor[dev] = prof.Horizon // corrupts to the end of the run
				continue
			}
			plan.Events = append(plan.Events, Event{At: end, Kind: CorruptRecover, Device: dev})
			devCursor[dev] = end + TimeGrid
		}
	}

	if err := plan.Validate(prof.Devices, prof.Ports, prof.Queues); err != nil {
		panic(fmt.Sprintf("fault: RandomPlan generated an invalid plan: %v", err))
	}
	return plan
}
