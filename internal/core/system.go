package core

import (
	"errors"
	"fmt"
	"math"

	"nba/internal/batch"
	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/fault"
	"nba/internal/gpu"
	"nba/internal/graph"
	"nba/internal/integrity"
	"nba/internal/lb"
	"nba/internal/netio"
	"nba/internal/overload"
	"nba/internal/reconfig"
	"nba/internal/rng"
	"nba/internal/sched"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// System is one assembled NBA instance on the virtual clock: the datapath
// (devices, NIC ports, workers with one lane per tenant) and the composition
// that wires the control loops to it. It hosts one or more tenant app graphs
// on the same workers, NIC queues and devices; the classic single-app
// configuration is the one-tenant special case and runs bit-identically to
// the pre-tenancy code.
type System struct {
	cfg Config
	eng *simtime.Engine

	// tenants is grow-only: an evicted tenant's slot, lanes and queues stay
	// in place (inactive) so tenant-major indexing never shifts; an
	// admitted tenant appends.
	tenants []tenantSlot
	// latent are the tenants a reconfig plan may admit, parsed and
	// trial-built at construction.
	latent    map[string]parsedTenant
	placement sched.PlacementPolicy

	ports      []*netio.Port
	devices    []*gpu.Device          // parallel to cfg.Topology.Devices
	devPlugged []bool                 // parallel to devices; all true without a plan
	workers    []*worker              // socket-major
	nodeLocals [][]*element.NodeLocal // [socket][tenant]: isolates shared element state per tenant
	// controllers / governors are per (socket, tenant): each tenant gets
	// its own ALB control loop and degradation governor so one tenant's
	// congestion escalates trim → bias → shed for that tenant alone.
	controllers [][]*lb.Controller
	governors   [][]*overload.Governor // nil when Overload is nil

	integrity *integrity.Tracker // nil when cfg.Integrity is nil
	reconfig  *reconfig.Driver

	stopTime  simtime.Time // warmup + duration
	measuring bool

	// Current offered-load state, composed by rate changes and
	// fault-injected rate bursts (factor over the nominal rate).
	curBps     float64
	rateFactor float64

	tailMarkBytes []uint64
	tailMarkTime  simtime.Time
	tailEndBytes  []uint64

	captured []netio.CapturedPacket
}

// tenantSlot is one tenant's configuration plus its live state.
type tenantSlot struct {
	Tenant
	share float64         // live weight: the configured Share until a retune
	frac  float64         // share normalised over the active tenants
	gen   netio.Generator // current generator (GeneratorChanges swap it)

	active    bool
	admitted  simtime.Time
	evicted   bool
	evictedAt simtime.Time
}

// parsedTenant is a tenant with its parsed pipeline.
type parsedTenant struct {
	Tenant
	parsed *conflang.Config
}

// errNoPluggedDevice reports that placement resolved to a socket whose every
// device is hot-unplugged; the caller rescues the aggregate on the CPU.
var errNoPluggedDevice = errors.New("core: no plugged device on socket")

// NewSystem builds a system from the configuration.
func NewSystem(cfg Config) (*System, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	top := cfg.Topology
	s := &System{
		cfg:           cfg,
		eng:           simtime.NewEngine(),
		placement:     cfg.Placement,
		stopTime:      cfg.Warmup + cfg.Duration,
		curBps:        cfg.OfferedBpsPerPort,
		rateFactor:    1,
		tailMarkBytes: make([]uint64, len(top.Ports)),
		tailEndBytes:  make([]uint64, len(top.Ports)),
		nodeLocals:    make([][]*element.NodeLocal, top.Sockets),
		controllers:   make([][]*lb.Controller, top.Sockets),
		latent:        make(map[string]parsedTenant, len(cfg.LatentTenants)),
	}
	if tr, ck := cfg.Tracer, cfg.Checker; tr != nil || ck != nil {
		s.eng.OnFire = func(at simtime.Time, fired uint64) {
			if tr != nil {
				tr.Emit(at, trace.KindDispatch, -1, "", int64(fired), 0, 0, 0)
			}
			ck.OnDispatch(at)
		}
	}
	if cfg.Overload != nil {
		s.governors = make([][]*overload.Governor, top.Sockets)
	}

	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []Tenant{{GraphConfig: cfg.GraphConfig, Share: 1, RateScale: 1, Generator: cfg.Generator}}
	}
	var initial []parsedTenant
	for i, t := range tenants {
		p, err := conflang.Parse(t.GraphConfig)
		if err != nil {
			return nil, fmt.Errorf("core: tenant %d (%s): %w", i, t.Name, err)
		}
		initial = append(initial, parsedTenant{t, p})
	}
	// Latent tenants (admittable by the reconfig plan): parse and trial-build
	// their graphs now, against throwaway state, so a broken latent config
	// fails at construction instead of mid-run inside an admit epoch.
	for i, t := range cfg.LatentTenants {
		p, err := conflang.Parse(t.GraphConfig)
		if err != nil {
			return nil, fmt.Errorf("core: latent tenant %d (%s): %w", i, t.Name, err)
		}
		cctx := &element.ConfigContext{
			NodeLocal:  element.NewNodeLocal(),
			NumPorts:   len(top.Ports),
			NumDevices: 1,
			Rand:       rng.New(1),
		}
		if _, err := graph.Build(p, cctx, cfg.CostModel, *cfg.GraphOpts); err != nil {
			return nil, fmt.Errorf("core: latent tenant %d (%s): %w", i, t.Name, err)
		}
		s.latent[t.Name] = parsedTenant{t, p}
	}

	// Devices (one device thread per device, on a dedicated core).
	for i, d := range top.Devices {
		dev, err := gpu.New(d.Name, d.Kind, s.eng, cfg.CostModel, top.CoreFreqHz, cfg.WorkersPerSocket)
		if err != nil {
			return nil, fmt.Errorf("core: device %d: %w", i, err)
		}
		dev.Tracer = cfg.Tracer
		dev.TraceActor = int32(i)
		dev.Checker = cfg.Checker
		if cfg.Overload != nil {
			dev.QueueDepth = cfg.Overload.DeviceQueueDepth
		}
		s.devices = append(s.devices, dev)
		s.devPlugged = append(s.devPlugged, true)
	}
	if cfg.Integrity != nil {
		s.integrity = integrity.NewTracker(cfg.Integrity, len(s.devices))
	}
	for _, hw := range top.Ports {
		s.ports = append(s.ports, &netio.Port{HW: hw})
	}
	// Workers: WorkersPerSocket per socket; each tenant installed below adds
	// one lane (graph replica + aggregator + queue set) to every worker.
	for socket := 0; socket < top.Sockets; socket++ {
		localPorts := top.PortsOnSocket(socket)
		localDevs := top.DevicesOnSocket(socket)
		for wi := 0; wi < cfg.WorkersPerSocket; wi++ {
			s.workers = append(s.workers, newWorker(s, len(s.workers), socket, wi, localPorts, localDevs))
		}
	}
	for _, pt := range initial {
		if err := s.installTenant(pt, pt.Share); err != nil {
			return nil, err
		}
	}
	// Pools after lanes: the garbage of building the shared lookup tables
	// is collected before the pools' memory is live, which bounds peak RSS.
	for _, w := range s.workers {
		w.pktPool = netio.NewPacketPool(fmt.Sprintf("pkt.w%d", w.id), cfg.PacketPoolPerWorker)
		w.batchPool = batch.NewPool(fmt.Sprintf("batch.w%d", w.id), cfg.BatchPoolPerWorker)
	}
	s.recomputeShares()
	s.applyRate()
	s.reconfig = reconfig.NewDriver(cfg.Reconfig, s.stopTime, s.eng, epochTarget{s}, cfg.DrainGrace, cfg.Tracer, cfg.Checker)
	return s, nil
}

// installTenant gives the next tenant slot everything it runs on: a
// NodeLocal row per socket, its tenant-major RX queues on every port (tenant
// t's queue for same-socket worker w is index t*WorkersPerSocket+w, its
// share of the port rate split evenly across them — RSS within a tenant's
// queue set), one lane per worker, and an adaptive controller and overload
// governor per socket. NewSystem installs the configured tenants through it
// at time 0 and a tenant.admit commit installs the admitted one; the caller
// then re-splits shares and queue rates.
func (s *System) installTenant(pt parsedTenant, share float64) error {
	now := s.eng.Now()
	t := len(s.tenants)
	s.tenants = append(s.tenants, tenantSlot{Tenant: pt.Tenant, share: share, gen: pt.Generator, active: true, admitted: now})
	for socket := range s.nodeLocals {
		s.nodeLocals[socket] = append(s.nodeLocals[socket], element.NewNodeLocal())
	}
	spec := netio.QueueSpec{Tenant: int32(t), Gen: pt.Generator, Stop: s.stopTime, Tracer: s.cfg.Tracer, Checker: s.cfg.Checker}
	for _, port := range s.ports {
		for wi := 0; wi < s.cfg.WorkersPerSocket; wi++ {
			port.AddQueue(now, spec, s.cfg.Topology.RxQueueCapacity)
		}
	}
	for _, w := range s.workers {
		ln, err := w.buildLane(t, pt.parsed)
		if err != nil {
			return err
		}
		w.lanes = append(w.lanes, ln)
	}
	// Adaptive controllers exist for sockets where the tenant's graph has
	// shared LB state (created by LoadBalance elements during Configure).
	for socket := range s.controllers {
		var ctl *lb.Controller
		if st, ok := s.nodeLocals[socket][t].Get(lb.StateKey).(*lb.State); ok && st.AdaptiveUsers > 0 {
			ctl = lb.NewController(st, lb.Wiring{
				Bound:       s.cfg.ALBLatencyBound,
				Tracer:      s.cfg.Tracer,
				TraceNow:    s.eng.Now,
				TraceActor:  int32(socket),
				TraceTenant: int32(t),
				Checker:     s.cfg.Checker,
			})
		}
		s.controllers[socket] = append(s.controllers[socket], ctl)
	}
	for socket := range s.governors {
		s.governors[socket] = append(s.governors[socket], overload.NewGovernor(*s.cfg.Overload))
	}
	if len(s.cfg.Tenants) > 0 {
		// Per-tenant digests are armed for explicit tenant configurations
		// only; legacy runs keep an unarmed tracer.
		s.cfg.Tracer.EnsureTenantDigests(len(s.tenants))
	}
	return nil
}

// recomputeShares re-normalizes the share split over the active tenants
// (evicted slots pin to zero) and re-seats every worker's WRR rotation.
func (s *System) recomputeShares() {
	var sum float64
	for _, ts := range s.tenants {
		if ts.active {
			sum += ts.share
		}
	}
	fracs := make([]float64, len(s.tenants))
	for t := range s.tenants {
		ts := &s.tenants[t]
		ts.frac = 0
		if ts.active && sum > 0 {
			ts.frac = ts.share / sum
		}
		fracs[t] = ts.frac
	}
	for _, w := range s.workers {
		w.wrr.SetShares(fracs)
	}
}

// overloadLevel returns a tenant's current governor level on a socket,
// LevelNormal when overload control is disabled.
func (s *System) overloadLevel(socket int, tenant int32) overload.Level {
	if socket >= len(s.governors) {
		return overload.LevelNormal
	}
	return s.governors[socket][tenant].Level()
}

// Engine exposes the virtual clock (for tests and the bench harness).
func (s *System) Engine() *simtime.Engine { return s.eng }

// deviceFor resolves a batch's device annotation through the placement
// policy (the scheduler stage's placement decision) for a tenant on a
// worker's socket.
func (s *System) deviceFor(socket int, tenant int32, anno int) (*gpu.Device, error) {
	local := s.cfg.Topology.DevicesOnSocket(socket)
	idx := s.placement.DeviceFor(int(tenant), anno, len(local))
	if idx < 0 || idx >= len(local) {
		return nil, fmt.Errorf("core: socket %d has no device for tenant %d annotation %d", socket, tenant, anno)
	}
	// Hot-unplug re-route: a device removed from service stops taking new
	// submissions the moment its epoch begins. Placement's choice falls to
	// the next plugged local device in index order; with none left the
	// caller rescues the aggregate on the CPU.
	if !s.devPlugged[local[idx]] {
		for off := 1; off < len(local); off++ {
			j := (idx + off) % len(local)
			if s.devPlugged[local[j]] {
				return s.devices[local[j]], nil
			}
		}
		return nil, errNoPluggedDevice
	}
	return s.devices[local[idx]], nil
}

// socketHasPluggedDevice reports whether any of the socket's devices is in
// service.
func (s *System) socketHasPluggedDevice(socket int) bool {
	for _, di := range s.cfg.Topology.DevicesOnSocket(socket) {
		if s.devPlugged[di] {
			return true
		}
	}
	return false
}

// applyRate pushes the current composed offered load (nominal rate × burst
// factor, split by tenant share × rate-scale under each tenant's generator
// frame mix) to every queue. Queues flapped down by fault injection keep
// receiving their share — the NIC's RSS hash does not know a ring died —
// and shed it by head-drop accounting once the ring fills (see
// netio.RxQueue.SetDown); re-steering load away from a dead queue would
// silently hide the loss.
func (s *System) applyRate() {
	now := s.eng.Now()
	nq := float64(s.cfg.WorkersPerSocket)
	for _, p := range s.ports {
		for _, q := range p.Rx {
			ts := &s.tenants[q.Tenant]
			pps := netio.OfferedPPS(s.curBps*s.rateFactor*ts.frac*ts.RateScale, ts.gen)
			q.SetRate(now, pps/nq)
		}
	}
}

// applyFault executes one fault-plan event and emits its trace record.
func (s *System) applyFault(ev fault.Event) {
	switch ev.Kind {
	case fault.DeviceFail:
		s.devices[ev.Device].Fail()
	case fault.DeviceRecover:
		s.devices[ev.Device].Recover()
	case fault.DeviceSlowdown:
		s.devices[ev.Device].SetSlowdown(ev.KernelFactor, ev.CopyFactor)
	case fault.DeviceHang:
		s.devices[ev.Device].Hang()
	case fault.RxQueueDown, fault.RxQueueUp:
		for qi, q := range s.ports[ev.Port].Rx {
			if ev.Queue == -1 || ev.Queue == qi {
				q.SetDown(ev.Kind == fault.RxQueueDown)
			}
		}
	case fault.RateBurst:
		s.rateFactor = ev.RateFactor
		s.applyRate()
	case fault.DeviceCorrupt:
		// The byte-flip stream is seeded from (run seed, event time, device),
		// so the corruption pattern is part of the run's identity: replaying
		// the same plan under the same seed corrupts the same bytes.
		s.devices[ev.Device].SetCorrupt(ev.CorruptProb, ev.FlipPattern, s.newCorruptRand(ev))
	case fault.CorruptRecover:
		s.devices[ev.Device].ClearCorrupt()
	}
	if tr := s.cfg.Tracer; tr != nil {
		kind := trace.KindFaultInject
		if ev.Kind.IsRecovery() {
			kind = trace.KindFaultRecover
		}
		target, queue := int64(ev.Device), int64(0)
		switch ev.Kind {
		case fault.RxQueueDown, fault.RxQueueUp:
			target, queue = int64(ev.Port), int64(ev.Queue)
		case fault.RateBurst:
			target = int64(math.Float64bits(ev.RateFactor))
		case fault.DeviceCorrupt:
			queue = int64(math.Float64bits(ev.CorruptProb))
		}
		tr.Emit(s.eng.Now(), kind, -1, ev.Kind.String(), int64(ev.Kind), target, queue, 0)
	}
}

// Run executes the configured workload and returns the measurement report.
//
// Engine same-tick order is registration order, so the registration
// sequence below is part of every run's identity: workers, measurement
// marks, generator and rate changes, the fault plan, the reconfig pump, the
// ALB loops, the governor loops, the drain watchdog.
func (s *System) Run() (*Report, error) {
	// Stagger worker start times by one cycle each so their first events
	// interleave deterministically.
	for i, w := range s.workers {
		s.eng.At(simtime.Time(i), w.iterateFn)
	}

	// Measurement window bracketing: Mark at the end of warmup, End when
	// arrivals stop, so post-stop queue draining is excluded from rates.
	s.eng.At(s.cfg.Warmup, func() {
		s.measuring = true
		for _, p := range s.ports {
			p.TxM.Mark(s.eng.Now())
		}
	})
	s.eng.At(s.stopTime, func() {
		for i, p := range s.ports {
			p.TxM.End(s.eng.Now())
			s.tailEndBytes[i] = p.TxM.Counter.WireBytes
		}
	})
	// Tail window: the last quarter of the measured duration, reported
	// separately so adaptive runs can be judged by their converged state
	// rather than the convergence transient.
	tailStart := s.stopTime - s.cfg.Duration/4
	if tailStart > s.cfg.Warmup {
		s.eng.At(tailStart, func() {
			for i, p := range s.ports {
				s.tailMarkBytes[i] = p.TxM.Counter.WireBytes
			}
			s.tailMarkTime = s.eng.Now()
		})
	}

	// Workload (generator) changes: swap the traffic mix, preserving the
	// offered wire rate under the new mean frame size. Config validation
	// restricts these to single-tenant runs, so tenant 0 owns all queues.
	for _, gc := range s.cfg.GeneratorChanges {
		if gc.At > s.stopTime || gc.Generator == nil {
			continue
		}
		s.eng.At(gc.At, func() {
			s.tenants[0].gen = gc.Generator
			for _, p := range s.ports {
				for _, q := range p.Rx {
					q.SetGenerator(gc.Generator)
				}
			}
			s.applyRate()
		})
	}
	for _, rc := range s.cfg.RateChanges {
		if rc.At > s.stopTime {
			continue
		}
		s.eng.At(rc.At, func() {
			s.curBps = rc.BpsPerPort
			s.applyRate()
		})
	}

	// Scripted fault timeline. Sorted() fixes the application order for
	// same-time events (stable in plan order).
	if plan := s.cfg.FaultPlan; plan != nil {
		for _, ev := range plan.Sorted() {
			s.eng.At(ev.At, func() { s.applyFault(ev) })
		}
	}
	// Registered after the fault plan so a fault and a reconfig epoch
	// landing on the same tick apply fault-first.
	s.reconfig.Start()
	s.startControlLoops(0)

	// Drain watchdog: after arrivals stop, the run should drain within the
	// grace window. A worker that can never retire (a hung device with the
	// rescue timeout disabled, say) would otherwise idle-poll forever and
	// Run would never return. Armed only when a checker is attached or a
	// grace is set explicitly, so untracked runs keep their exact event
	// timeline (and their golden trace digests).
	if grace := s.cfg.DrainGrace; grace > 0 {
		s.eng.At(s.stopTime+grace, func() {
			if stuck := s.stuckWorkers(); stuck > 0 {
				s.cfg.Checker.StuckDrain(s.eng.Now(), stuck)
				s.eng.Stop()
			}
		})
	}

	s.eng.Run()

	return s.report(), nil
}

// stuckWorkers counts the workers that have not retired.
func (s *System) stuckWorkers() (n int) {
	for _, w := range s.workers {
		if !w.stopped {
			n++
		}
	}
	return n
}

// newLaneRand derives a deterministic PRNG per (worker, tenant) lane. The
// tenant-0 stream is identical to the pre-tenancy per-worker stream, which
// single-tenant digest stability depends on.
func (s *System) newLaneRand(id int, tenant int32) *rng.Rand {
	return rng.New(s.cfg.Seed*0x9E3779B97F4A7C15 + uint64(id) + 1 + uint64(tenant)*0x9D2C5680F4A7C159)
}

// newSentinelRand derives the per-worker sentinel sampling stream. The salt
// keeps it disjoint from every lane stream, so arming the sentinel never
// perturbs element-level randomness.
func (s *System) newSentinelRand(id int) *rng.Rand {
	return rng.New((s.cfg.Seed*0x9E3779B97F4A7C15 ^ 0xC2B2AE3D27D4EB4F) + uint64(id) + 1)
}

// newCorruptRand derives the byte-flip stream for one DeviceCorrupt event
// from (run seed, event time, device), making the corruption pattern part of
// the run's identity.
func (s *System) newCorruptRand(ev fault.Event) *rng.Rand {
	return rng.New((s.cfg.Seed*0x9E3779B97F4A7C15 ^ 0xD6E8FEB86659FD93) +
		uint64(ev.At)*0x9D2C5680F4A7C159 + uint64(ev.Device) + 1)
}
