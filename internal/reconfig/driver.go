package reconfig

import (
	"fmt"

	"nba/internal/invariant"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// drainPoll is the cadence at which an in-flight epoch re-evaluates its
// drain predicate. Polling exists only while a plan event is mid-epoch, so
// plan-free runs schedule no polls at all.
const drainPoll = 10 * simtime.Microsecond

// Record carries the target fields of one epoch trace event: the tenant slot
// it concerns (trace.NoTenant when none), the target index, and a
// kind-specific value (the begin event's share bits or ring capacity, the
// commit event's count of re-seated lanes, controllers or queues).
type Record struct {
	Tenant int32
	Target int64
	Value  int64
}

// Target is the datapath side of the epoch protocol: the per-kind actions a
// Driver calls back into. core.System implements it.
type Target interface {
	// Quiesce begins ev: new arrivals or submissions to its target stop,
	// in-flight work keeps running.
	Quiesce(ev Event) Record
	// Drained is ev's drain predicate.
	Drained(ev Event) bool
	// Rescue force-evacuates ev's remaining in-flight work through the
	// CPU-fallback path and returns how many tasks and aggregates it moved.
	Rescue(ev Event) int
	// Commit applies ev.
	Commit(ev Event) Record
	// Sealed runs once an evict epoch's commit is on the timeline: the
	// evicted tenant's digest is sealed there, after its last event. clean
	// reports that the epoch drained without orphaning work.
	Sealed(ev Event, epoch int, clean bool)
}

// Driver runs a plan's epochs on the virtual clock: it begins each event's
// epoch when its time comes (serially — an event due mid-epoch waits for
// the commit, preserving plan order), polls the drain predicate,
// force-rescues at DrainGrace, declares the work orphaned and commits anyway
// at twice the grace, and emits the begin/drain/commit trace events.
type Driver struct {
	eng     *simtime.Engine
	target  Target
	grace   simtime.Time
	tracer  *trace.Tracer
	checker *invariant.Checker

	events []Event // plan order, inside the run
	next   int
	pollFn func()

	// The epoch in flight, if active.
	active   bool
	epoch    int
	begin    simtime.Time
	ev       Event
	rescued  int
	forced   bool
	orphaned bool
}

// NewDriver prepares a plan's events that fall inside a run ending at stop.
// A non-positive grace never forces a drain.
func NewDriver(plan *Plan, stop simtime.Time, eng *simtime.Engine, target Target, grace simtime.Time, tr *trace.Tracer, ck *invariant.Checker) *Driver {
	d := &Driver{eng: eng, target: target, grace: grace, tracer: tr, checker: ck}
	if plan != nil {
		for _, ev := range plan.Sorted() {
			if ev.At <= stop {
				d.events = append(d.events, ev)
			}
		}
	}
	d.pollFn = d.poll
	return d
}

// Start registers the first epoch. A plan with no event inside the run
// schedules nothing, so the event timeline — and every golden digest — is
// byte-identical to a run without a plan.
func (d *Driver) Start() {
	if len(d.events) > 0 {
		d.eng.At(d.events[0].At, d.pump)
	}
}

// pump begins the next event's epoch unless one is in flight.
func (d *Driver) pump() {
	if d.active || d.next >= len(d.events) {
		return
	}
	ev := d.events[d.next]
	d.next++
	d.active = true
	d.epoch++
	d.begin = d.eng.Now()
	d.ev = ev
	d.rescued, d.forced, d.orphaned = 0, false, false
	rec := d.target.Quiesce(ev)
	d.tracer.EmitT(d.begin, trace.KindReconfigBegin, -1, rec.Tenant, ev.Kind.String(),
		int64(d.epoch), int64(ev.Kind), rec.Target, rec.Value)
	d.poll()
}

// poll drives the drain phase: commit as soon as the predicate holds; at the
// grace deadline force-rescue the remaining work; at twice the grace declare
// it orphaned (an invariant violation) and commit anyway so the run can
// finish and report.
func (d *Driver) poll() {
	if !d.active {
		return
	}
	now := d.eng.Now()
	if d.target.Drained(d.ev) {
		d.commit()
		return
	}
	if d.grace > 0 {
		if !d.forced && now >= d.begin+d.grace {
			d.forced = true
			d.rescued += d.target.Rescue(d.ev)
		}
		if now >= d.begin+2*d.grace {
			d.orphaned = true
			d.checker.OrphanLane(now, d.epoch, fmt.Sprintf(
				"epoch %d (%s) still undrained %v past begin (grace %v); committing with work stranded",
				d.epoch, d.ev.Kind, now-d.begin, d.grace))
			d.commit()
			return
		}
	}
	d.eng.After(drainPoll, d.pollFn)
}

// commit applies the epoch, emits its drain and commit events, and begins
// the next event's epoch at once if its time passed while this one drained.
func (d *Driver) commit() {
	now := d.eng.Now()
	ev := d.ev
	rec := d.target.Commit(ev)
	var forced int64
	if d.forced {
		forced = 1
	}
	d.tracer.Emit(now, trace.KindReconfigDrain, -1, ev.Kind.String(),
		int64(d.epoch), int64(now-d.begin), int64(d.rescued), forced)
	d.tracer.EmitT(now, trace.KindReconfigCommit, -1, rec.Tenant, ev.Kind.String(),
		int64(d.epoch), int64(ev.Kind), rec.Target, rec.Value)
	if ev.Kind == TenantEvict {
		d.target.Sealed(ev, d.epoch, !d.orphaned)
	}
	d.active = false
	if d.next < len(d.events) {
		if next := d.events[d.next]; next.At <= now {
			d.pump()
		} else {
			d.eng.At(next.At, d.pump)
		}
	}
}

// CheckEnd reports, at engine stop, an epoch still in flight or plan events
// that never began one: either way the protocol lost track of work it
// promised to re-seat.
func (d *Driver) CheckEnd(now simtime.Time) {
	if d.active {
		d.checker.OrphanLane(now, d.epoch, fmt.Sprintf(
			"epoch %d (%s) still in progress at engine stop (begun %v)",
			d.epoch, d.ev.Kind, d.begin))
	}
	if d.next < len(d.events) {
		d.checker.OrphanLane(now, d.epoch, fmt.Sprintf(
			"%d reconfig event(s) scheduled inside the run never began an epoch (next: %s at %v)",
			len(d.events)-d.next, d.events[d.next].Kind, d.events[d.next].At))
	}
}
