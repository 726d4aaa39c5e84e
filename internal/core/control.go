package core

import (
	"fmt"
	"math"

	"nba/internal/integrity"
	"nba/internal/lb"
	"nba/internal/overload"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/trace"
)

// This file connects the control policies to the datapath. The policies
// themselves live in their packages — the adaptive balancer in lb, the
// degradation governor in overload, the corruption escalation ladder in
// integrity, the epoch protocol in reconfig — and core gathers their
// signals and actuates their decisions.

// startControlLoops registers the ALB loops, then the governor loops, of
// tenants first and up, socket-major and tenant-minor (the order the
// single-tenant event timeline depends on). Run starts them for the initial
// tenant set and an admit commit for the admitted tenant; every loop stops
// rescheduling once its tenant is evicted.
func (s *System) startControlLoops(first int) {
	for socket, row := range s.controllers {
		for t := first; t < len(row); t++ {
			if row[t] != nil {
				s.startALBLoops(socket, t, row[t])
			}
		}
	}
	for socket, row := range s.governors {
		for t := first; t < len(row); t++ {
			s.startGovernorLoop(socket, t, row[t])
		}
	}
}

// startALBLoops registers one (socket, tenant) controller's observe loop
// (throughput samples) and update loop (control steps).
func (s *System) startALBLoops(socket, tenant int, ctl *lb.Controller) {
	var lastPkts uint64
	var lastT simtime.Time
	var observe func()
	observe = func() {
		if !s.tenants[tenant].active {
			return
		}
		now := s.eng.Now()
		pkts := s.tenantCounters(socket, tenant).TxPackets
		if now > lastT {
			ctl.Observe(float64(pkts-lastPkts) / (now - lastT).Seconds())
		}
		lastPkts, lastT = pkts, now
		if now < s.stopTime {
			s.eng.After(s.cfg.ALBObserve, observe)
		}
	}
	s.eng.After(s.cfg.ALBObserve, observe)

	var lastFails uint64
	var update func()
	update = func() {
		if !s.tenants[tenant].active {
			return
		}
		// Completion failures since the last step steer the controller:
		// a failing device forces W toward the CPU regardless of the
		// throughput signal.
		c := s.tenantCounters(socket, tenant)
		fails := c.FailedTasks + c.TimedOutTasks
		ctl.NoteTaskFailures(int(fails - lastFails))
		lastFails = fails
		if ctl.Bound > 0 {
			// The p99 of the tenant's latency windows on the socket since
			// the last step, which restart here.
			var recent stats.Hist
			s.eachLane(socket, tenant, func(ln *lane) {
				recent.Merge(&ln.recentLat)
				ln.recentLat.Reset()
			})
			ctl.UpdateWithLatency(recent.Percentile(99))
		} else {
			ctl.Update()
		}
		if s.eng.Now() < s.stopTime {
			s.eng.After(s.cfg.ALBUpdate, update)
		}
	}
	s.eng.After(s.cfg.ALBUpdate, update)
}

// startGovernorLoop registers one (socket, tenant) overload-governor window
// loop.
func (s *System) startGovernorLoop(socket, tenant int, g *overload.Governor) {
	var tick func()
	tick = func() {
		if !s.tenants[tenant].active {
			return
		}
		s.governorTick(socket, tenant, g)
		if s.eng.Now() < s.stopTime {
			s.eng.After(s.cfg.Overload.GovernorWindow, tick)
		}
	}
	s.eng.After(s.cfg.Overload.GovernorWindow, tick)
}

// governorTick runs one governor window for a (socket, tenant): it gathers
// the saturation signals — a plugged device on the socket with its bounded
// queue full or backlogged (device-side, shared across tenants), and the
// tenant's RX drops and sheds there (CPU-side) — and actuates the
// governor's decision on that tenant alone.
func (s *System) governorTick(socket, tenant int, g *overload.Governor) {
	devSat := false
	cm := s.cfg.CostModel
	for _, di := range s.cfg.Topology.DevicesOnSocket(socket) {
		d := s.devices[di]
		if s.devPlugged[di] && (d.Saturated() || (cm.MaxDeviceBacklog > 0 && d.Backlog() > cm.MaxDeviceBacklog)) {
			devSat = true
			break
		}
	}
	c := s.tenantCounters(socket, tenant)
	st := g.Tick(devSat, c.RxDropped, c.ShedPackets+c.RejectedTasks)
	if st.Changed {
		s.eachLane(socket, tenant, func(ln *lane) { ln.agg.AgeScale = st.AgeScale })
		if st.Release {
			if n, lo, hi := s.moveW(socket, tenant, wRelease, 0); n > 0 {
				s.emitBias(socket, tenant, lo, hi, st)
			}
		}
		s.cfg.Tracer.EmitT(s.eng.Now(), trace.KindOverloadLevel, int32(socket), int32(tenant), st.Level.String(),
			int64(st.Level), int64(st.Prev), b2i(st.DeviceSat), b2i(st.CPUSat))
	}
	if st.Ratchet {
		m := wFloorUp
		if st.DeviceSat {
			m = wCeilingDown
		}
		if n, lo, hi := s.moveW(socket, tenant, m, s.cfg.Overload.BiasStep); n > 0 {
			s.emitBias(socket, tenant, lo, hi, st)
		}
	}
}

func (s *System) emitBias(socket, tenant int, lo, hi float64, st overload.Step) {
	s.cfg.Tracer.EmitT(s.eng.Now(), trace.KindOverloadBias, int32(socket), int32(tenant), "bias",
		int64(math.Float64bits(lo)), int64(math.Float64bits(hi)), b2i(st.DeviceSat), b2i(st.CPUSat))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// wMove is one way to re-seat a controller's W bounds.
type wMove uint8

const (
	// wRelease reopens the full range (0, 1) — or keeps offload closed at
	// (0, 0) when none of the socket's devices is plugged.
	wRelease wMove = iota
	// wCeilingDown lowers the ceiling one step toward the CPU.
	wCeilingDown
	// wFloorUp raises the floor one step toward the device.
	wFloorUp
)

// allTenants selects every active tenant's controller in moveW.
const allTenants = -1

// moveW re-seats the W bounds of one tenant's controller on a socket, or of
// every active tenant's when tenant is allTenants, and returns how many it
// re-seated with the last bounds it set. Every W-bound change goes through
// here: device unplug and plug, the governor's release and ratchet, and the
// integrity sentinel's demotion and probe.
func (s *System) moveW(socket, tenant int, m wMove, step float64) (n int, lo, hi float64) {
	for t, ctl := range s.controllers[socket] {
		if ctl == nil || !s.tenants[t].active || (tenant != allTenants && t != tenant) {
			continue
		}
		lo, hi = ctl.WBounds()
		switch m {
		case wRelease:
			lo, hi = 0, 0
			if s.socketHasPluggedDevice(socket) {
				hi = 1
			}
		case wCeilingDown:
			hi = math.Max(lo, hi-step)
		case wFloorUp:
			lo = math.Min(hi, lo+step)
		}
		ctl.SetWBounds(lo, hi)
		n++
	}
	return n, lo, hi
}

// noteIntegrity folds one sentinel verification outcome into the per-device
// corruption tracker and actuates whatever escalation it decides: demotion
// lowers the W ceiling of every tenant on the device's socket, fail-stop
// takes the device out of service until the recovery probe. Called from the
// worker's completion path, on the serial engine.
func (s *System) noteIntegrity(w *worker, it *inflightTask, match bool) {
	now := w.now()
	dev := it.dev
	devIdx := int(dev.TraceActor)
	tr := s.cfg.Tracer
	tr.EmitT(now, trace.KindIntegrityCheck, int32(w.id), it.ln.tenant, dev.Name,
		int64(it.task.ID), int64(it.pending.NPkts), b2i(!match), int64(devIdx))
	action := s.integrity.Observe(devIdx, !match, now)
	if !match {
		tr.EmitT(now, trace.KindIntegrityMismatch, int32(w.id), it.ln.tenant, dev.Name,
			int64(it.task.ID), int64(it.pending.NPkts),
			int64(math.Float64bits(s.integrity.Score(devIdx))), int64(devIdx))
	}
	socket := s.cfg.Topology.Devices[devIdx].Socket
	switch action {
	case integrity.ActionDemote:
		s.moveW(socket, allTenants, wCeilingDown, s.cfg.Integrity.DemoteStep)
		s.emitEscalation(now, devIdx, 0)
	case integrity.ActionFailStop:
		s.devices[devIdx].Fail()
		s.emitEscalation(now, devIdx, 1)
		s.eng.After(s.cfg.Integrity.ProbeAfter, func() {
			if s.integrity.Probe(devIdx) {
				s.devices[devIdx].Recover()
				s.moveW(socket, allTenants, wRelease, 0)
				s.emitEscalation(s.eng.Now(), devIdx, 2)
			}
		})
	}
}

// emitEscalation emits one integrity.demote trace record (phase 0 = ALB
// demotion, 1 = fail-stop, 2 = probe re-admit).
func (s *System) emitEscalation(now simtime.Time, devIdx int, phase int64) {
	s.cfg.Tracer.Emit(now, trace.KindIntegrityDemote, int32(s.cfg.Topology.Devices[devIdx].Socket), s.devices[devIdx].Name,
		phase, int64(math.Float64bits(s.integrity.Score(devIdx))),
		int64(s.integrity.Consecutive(devIdx)), int64(devIdx))
}

// epochTarget carries out the per-kind actions of the reconfig epoch
// protocol on the system; reconfig.Driver sequences them.
type epochTarget struct{ *System }

// Quiesce implements reconfig.Target: an evicted tenant's arrivals stop
// (co-tenant splits stay until commit re-normalizes them) and an unplugged
// device stops taking new submissions; queued work keeps draining.
func (e epochTarget) Quiesce(ev reconfig.Event) reconfig.Record {
	rec := reconfig.Record{Tenant: trace.NoTenant}
	switch ev.Kind {
	case reconfig.TenantAdmit:
		// The admitted tenant always takes the next slot.
		rec.Target = int64(len(e.tenants))
		rec.Value = int64(math.Float64bits(ev.Share))
	case reconfig.TenantEvict:
		t := e.tenantIndex(ev.Tenant)
		rec.Tenant, rec.Target = int32(t), int64(t)
		e.tenants[t].frac = 0
		e.applyRate()
	case reconfig.ShareRetune:
		t := e.tenantIndex(ev.Tenant)
		rec.Tenant, rec.Target = int32(t), int64(t)
		rec.Value = int64(math.Float64bits(ev.Share))
	case reconfig.DeviceUnplug:
		rec.Target = int64(ev.Device)
		e.devPlugged[ev.Device] = false
	case reconfig.DevicePlug:
		rec.Target = int64(ev.Device)
	case reconfig.QueueResize:
		rec.Target = int64(ev.Port)
		rec.Value = int64(ev.Capacity)
	}
	return rec
}

// Drained implements reconfig.Target: an evicted tenant's lanes have no
// outstanding device task and are idle; an unplugged device's queue is
// empty. Admit, retune, plug and resize epochs have nothing in flight and
// drain at once.
func (e epochTarget) Drained(ev reconfig.Event) bool {
	switch ev.Kind {
	case reconfig.TenantEvict:
		t := e.tenantIndex(ev.Tenant)
		for _, w := range e.workers {
			if ln := w.lanes[t]; ln.inflightTasks > 0 || !ln.idle(e.eng.Now()) {
				return false
			}
		}
		return true
	case reconfig.DeviceUnplug:
		return e.devices[ev.Device].Queued() == 0
	default:
		return true
	}
}

// Rescue implements reconfig.Target: evict epochs route every outstanding
// task and pending aggregate of the tenant's lanes through the
// completion-timeout path; unplug epochs abort the device's queue so its
// tasks fail back to their workers. Either way the work drains through the
// CPU-fallback path with its normal accounting.
func (e epochTarget) Rescue(ev reconfig.Event) int {
	rescued := 0
	switch ev.Kind {
	case reconfig.TenantEvict:
		t := e.tenantIndex(ev.Tenant)
		for _, w := range e.workers {
			rescued += w.rescueLane(w.lanes[t])
		}
	case reconfig.DeviceUnplug:
		rescued = e.devices[ev.Device].AbortAll()
	}
	return rescued
}

// Commit implements reconfig.Target: it installs or retires a tenant,
// re-splits shares and queue rates, re-seats the socket's W bounds after a
// device leaves or returns (the socket's last device gone collapses its
// controllers to the CPU; the unplugged-rescue path covers aggregates
// already annotated for offload), or re-sizes rings.
func (e epochTarget) Commit(ev reconfig.Event) reconfig.Record {
	now := e.eng.Now()
	rec := reconfig.Record{Tenant: trace.NoTenant}
	switch ev.Kind {
	case reconfig.TenantAdmit:
		pt, ok := e.latent[ev.Tenant]
		if !ok {
			panic(fmt.Sprintf("core: admit of unknown latent tenant %q", ev.Tenant))
		}
		share := pt.Share
		if ev.Share > 0 {
			share = ev.Share
		}
		t := len(e.tenants)
		if err := e.installTenant(pt, share); err != nil {
			// Latent graphs are trial-built at construction; failing here is
			// a programming bug, not a plan-authoring error.
			panic(fmt.Sprintf("core: admit %q: %v", ev.Tenant, err))
		}
		e.recomputeShares()
		e.applyRate()
		e.startControlLoops(t)
		rec.Tenant, rec.Target, rec.Value = int32(t), int64(t), int64(len(e.workers))
	case reconfig.TenantEvict:
		t := e.tenantIndex(ev.Tenant)
		ts := &e.tenants[t]
		ts.active, ts.evicted, ts.evictedAt = false, true, now
		for _, w := range e.workers {
			w.lanes[t].active = false
		}
		e.recomputeShares()
		e.applyRate()
		rec.Tenant, rec.Target, rec.Value = int32(t), int64(t), int64(len(e.workers))
	case reconfig.ShareRetune:
		t := e.tenantIndex(ev.Tenant)
		e.tenants[t].share = ev.Share
		e.recomputeShares()
		e.applyRate()
		rec.Tenant, rec.Target, rec.Value = int32(t), int64(t), int64(len(e.workers))
	case reconfig.DeviceUnplug:
		rec.Target = int64(ev.Device)
		if socket := e.cfg.Topology.Devices[ev.Device].Socket; !e.socketHasPluggedDevice(socket) {
			n, _, _ := e.moveW(socket, allTenants, wRelease, 0)
			rec.Value = int64(n)
		}
	case reconfig.DevicePlug:
		rec.Target = int64(ev.Device)
		e.devPlugged[ev.Device] = true
		n, _, _ := e.moveW(e.cfg.Topology.Devices[ev.Device].Socket, allTenants, wRelease, 0)
		rec.Value = int64(n)
	case reconfig.QueueResize:
		rec.Target = int64(ev.Port)
		for pid, p := range e.ports {
			if ev.Port != -1 && ev.Port != pid {
				continue
			}
			for _, q := range p.Rx {
				q.SetCapacity(now, ev.Capacity)
				rec.Value++
			}
		}
	}
	return rec
}

// Sealed implements reconfig.Target: the evicted tenant's digest is sealed
// and, when the epoch drained cleanly, the epoch-boundary conservation is
// checked — with the tenant's lanes and queues drained, every packet its
// queues ever delivered is already transmitted, dropped, shed or
// quarantined, so its mempool footprint is provably returned.
func (e epochTarget) Sealed(ev reconfig.Event, epoch int, clean bool) {
	t := e.tenantIndex(ev.Tenant)
	e.cfg.Tracer.SealTenantDigest(t)
	if clean {
		c := e.tenantCounters(-1, t)
		e.cfg.Checker.EpochConservation(e.eng.Now(), epoch, ev.Tenant,
			c.RxDelivered, c.TxPackets, c.GraphDrops, c.ShedPackets, c.QuarantinedPackets)
	}
}

// tenantIndex resolves a plan tenant name to its slot. Plan validation
// guarantees evict/retune targets were admitted, so a miss is a bug.
func (s *System) tenantIndex(name string) int {
	for t := range s.tenants {
		if s.tenants[t].Name == name {
			return t
		}
	}
	panic(fmt.Sprintf("core: reconfig references unknown tenant %q", name))
}
