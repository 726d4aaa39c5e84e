package chaos

import (
	"nba/internal/fault"
	"nba/internal/reconfig"
)

// shrinkEvents is the greedy delta-debugging loop behind Shrink and
// ShrinkReconfig. Candidate transformations of the current timeline are
// tried in a fixed order, and any candidate that still fails restarts the
// scan:
//
//  1. remove a single event, scanning from the end (trailing recovery,
//     evict and replug events go first, leaving the opening event that
//     usually matters);
//  2. remove a same-target pair — a whole fault window or lifecycle at
//     once, for the cases where both single removals are rejected or pass
//     (a recover or an evict alone would make the timeline invalid);
//  3. the kind-specific pass, when one is given.
//
// The result is a fixed point: no single transformation both keeps the
// timeline valid and keeps it failing. try gates each candidate on valid
// and spends one of the maxRuns stillFails probes on it (shrinking is
// search, and each probe is a full run); the best timeline found so far is
// returned when the budget runs out, along with the number of probes spent.
func shrinkEvents[E any](events []E, sameTarget func(a, b E) bool,
	pass func(cur []E, try func([]E) bool) ([]E, bool),
	stillFails, valid func([]E) bool, maxRuns int) ([]E, int) {
	runs := 0
	try := func(cand []E) bool {
		if runs >= maxRuns || !valid(cand) {
			return false
		}
		runs++
		return stillFails(cand)
	}
	step := func(cur []E) ([]E, bool) {
		for i := len(cur) - 1; i >= 0; i-- {
			if cand := without(cur, i, -1); try(cand) {
				return cand, true
			}
		}
		for i := range cur {
			for j := i + 1; j < len(cur); j++ {
				if !sameTarget(cur[i], cur[j]) {
					continue
				}
				if cand := without(cur, i, j); try(cand) {
					return cand, true
				}
			}
		}
		if pass == nil {
			return nil, false
		}
		return pass(cur, try)
	}

	cur := append([]E(nil), events...)
	for {
		cand, ok := step(cur)
		if !ok {
			return cur, runs
		}
		cur = cand
	}
}

// without returns a copy of evs with index i (and j, when >= 0) dropped.
func without[E any](evs []E, i, j int) []E {
	out := make([]E, 0, len(evs))
	for k, ev := range evs {
		if k != i && k != j {
			out = append(out, ev)
		}
	}
	return out
}

// Shrink reduces a failing fault plan to a minimal reproducer: the
// shrinkEvents loop plus a fault pass that halves magnitudes toward nominal
// and then halves fault windows.
//
// stillFails must re-run the case with the candidate plan and report
// whether it still violates an invariant; valid gates candidates on
// Plan.Validate for the run's topology. maxRuns bounds the number of
// stillFails calls.
func Shrink(plan *fault.Plan, stillFails func(*fault.Plan) bool, valid func(*fault.Plan) bool, maxRuns int) (*fault.Plan, int) {
	evs, runs := shrinkEvents(plan.Events, sameTarget, shrinkFaultPass,
		func(evs []fault.Event) bool { return stillFails(&fault.Plan{Events: evs}) },
		func(evs []fault.Event) bool { return valid(&fault.Plan{Events: evs}) },
		maxRuns)
	return &fault.Plan{Events: evs}, runs
}

// ShrinkReconfig reduces a failing reconfiguration plan with the
// shrinkEvents loop alone: single removals, then same-target pairs (an
// admit+evict of one tenant or an unplug+plug of one device, whose single
// removals the timeline validator rejects).
func ShrinkReconfig(plan *reconfig.Plan, stillFails func(*reconfig.Plan) bool, valid func(*reconfig.Plan) bool, maxRuns int) (*reconfig.Plan, int) {
	evs, runs := shrinkEvents(plan.Events, sameReconfigTarget, nil,
		func(evs []reconfig.Event) bool { return stillFails(&reconfig.Plan{Events: evs}) },
		func(evs []reconfig.Event) bool { return valid(&reconfig.Plan{Events: evs}) },
		maxRuns)
	return &reconfig.Plan{Events: evs}, runs
}

// shrinkFaultPass halves fault magnitudes toward nominal (factor 1,
// corruption probability 0), then moves each window's closing event halfway
// toward its opener, returning the first candidate that still fails.
func shrinkFaultPass(cur []fault.Event, try func([]fault.Event) bool) ([]fault.Event, bool) {
	edit := func(i int, change func(*fault.Event)) ([]fault.Event, bool) {
		cand := append([]fault.Event(nil), cur...)
		change(&cand[i])
		return cand, try(cand)
	}
	for i, ev := range cur {
		switch ev.Kind {
		case fault.DeviceSlowdown:
			k, kok := halveFactor(ev.KernelFactor)
			c, cok := halveFactor(ev.CopyFactor)
			if !kok && !cok {
				continue
			}
			if cand, ok := edit(i, func(e *fault.Event) { e.KernelFactor, e.CopyFactor = k, c }); ok {
				return cand, true
			}
		case fault.RateBurst:
			f, ok := halveFactor(ev.RateFactor)
			if ev.RateFactor == 0 {
				// Not the "leave unchanged" sentinel here: a zero burst
				// stops all arrivals, and halves toward 1 like any factor.
				f, ok = 0.5, true
			}
			if !ok {
				continue
			}
			if cand, ok := edit(i, func(e *fault.Event) { e.RateFactor = f }); ok {
				return cand, true
			}
		case fault.DeviceCorrupt:
			// Halve the corruption probability toward zero (the validator
			// rejects 0, so the halving bottoms out on its own).
			if ev.CorruptProb <= 0.05 {
				continue
			}
			if cand, ok := edit(i, func(e *fault.Event) { e.CorruptProb /= 2 }); ok {
				return cand, true
			}
		}
	}
	for i, ev := range cur {
		if !closesWindow(ev) {
			continue
		}
		j := openerOf(cur, i)
		if j < 0 {
			continue
		}
		// The midpoint stays on the generators' time grid.
		mid := (cur[j].At + ev.At) / 2 / fault.TimeGrid * fault.TimeGrid
		if mid <= cur[j].At || mid >= ev.At {
			continue
		}
		if cand, ok := edit(i, func(e *fault.Event) { e.At = mid }); ok {
			return cand, true
		}
	}
	return nil, false
}

// sameReconfigTarget reports whether two reconfig events act on the same
// tenant or device, so removing both plausibly removes one whole lifecycle.
func sameReconfigTarget(a, b reconfig.Event) bool {
	if tenantReconfigKind(a.Kind) && tenantReconfigKind(b.Kind) {
		return a.Tenant == b.Tenant
	}
	if deviceReconfigKind(a.Kind) && deviceReconfigKind(b.Kind) {
		return a.Device == b.Device
	}
	return a.Kind == reconfig.QueueResize && b.Kind == reconfig.QueueResize && a.Port == b.Port
}

func tenantReconfigKind(k reconfig.Kind) bool {
	switch k {
	case reconfig.TenantAdmit, reconfig.TenantEvict, reconfig.ShareRetune:
		return true
	}
	return false
}

func deviceReconfigKind(k reconfig.Kind) bool {
	return k == reconfig.DeviceUnplug || k == reconfig.DevicePlug
}

// sameTarget reports whether two events act on the same fault target, so
// removing both plausibly removes one whole fault window.
func sameTarget(a, b fault.Event) bool {
	if deviceKind(a.Kind) && deviceKind(b.Kind) {
		return a.Device == b.Device
	}
	if queueKind(a.Kind) && queueKind(b.Kind) {
		return a.Port == b.Port && a.Queue == b.Queue
	}
	return a.Kind == fault.RateBurst && b.Kind == fault.RateBurst
}

func deviceKind(k fault.Kind) bool {
	switch k {
	case fault.DeviceFail, fault.DeviceRecover, fault.DeviceSlowdown, fault.DeviceHang,
		fault.DeviceCorrupt, fault.CorruptRecover:
		return true
	}
	return false
}

func queueKind(k fault.Kind) bool {
	return k == fault.RxQueueDown || k == fault.RxQueueUp
}

// closesWindow reports whether the event restores capacity taken by an
// earlier event (the end of a fault window).
func closesWindow(ev fault.Event) bool {
	return ev.Kind.IsRecovery() || (ev.Kind == fault.RateBurst && ev.RateFactor == 1)
}

// openerOf finds the latest earlier same-target non-closing event — the
// start of the window that event i closes. Returns -1 when there is none.
func openerOf(evs []fault.Event, i int) int {
	ev := evs[i]
	best := -1
	for j, o := range evs {
		if j == i || closesWindow(o) || !sameTarget(o, ev) || o.At >= ev.At {
			continue
		}
		if best < 0 || o.At > evs[best].At {
			best = j
		}
	}
	return best
}

// halveFactor moves a slowdown or burst factor halfway toward nominal (1),
// on a coarse grid; ok is false when it is already within 10% of nominal
// or is a slowdown's zero "leave unchanged" sentinel.
func halveFactor(f float64) (float64, bool) {
	if f == 0 {
		return f, false
	}
	next := 1 + (f-1)/2
	if diff := next - f; diff < 0.05 && diff > -0.05 {
		return f, false
	}
	return next, true
}
