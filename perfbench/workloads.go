package main

import (
	"fmt"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/integrity"
	"nba/internal/netio"
	"nba/internal/overload"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

// defaultSeed is the seed whose trace digests are pinned in digests.json.
const defaultSeed = 1

// workload is one pinned benchmark input: a machine, a graph set, a traffic
// mix and an offered rate, all derived from the workload seed.
type workload struct {
	name string
	// warmup and duration are the virtual-time lengths of one run.
	warmup, duration simtime.Time
	// apps are the apps the workload hosts, in tenant order.
	apps []string
	// subSeeds is how many independent trajectories (sub-seeds of the
	// workload seed) one invocation summarises; chaotic workloads need
	// more for their virtual metrics to be steady across seeds.
	subSeeds int
	// traceCapacity sizes the traced run's event ring so that no event is
	// overwritten; the traced run retries with the exact total if it was
	// too small.
	traceCapacity int
	build         func(seed uint64, w *workload) (core.Config, error)
}

// tenantApps is the fixed tenant set every per-tenant metric is named
// after; single-app workloads report their one app under its own name.
var tenantApps = []string{"ipv4", "ipsec", "ipv6", "ids"}

var workloads = []*workload{
	{
		name:   "ipv4-cpu-64b",
		warmup: 5 * simtime.Millisecond, duration: 115 * simtime.Millisecond,
		apps:          []string{"ipv4"},
		subSeeds:      5,
		traceCapacity: 1_800_000,
		build: func(seed uint64, w *workload) (core.Config, error) {
			text, err := bench.AppConfig("ipv4", "cpu")
			if err != nil {
				return core.Config{}, err
			}
			return w.base(seed, core.Config{
				Topology:    sysinfo.DefaultTopology(),
				GraphConfig: text,
				Generator:   bench.GeneratorFor("ipv4", 64, genSeed(seed, 0)),
				// Arrivals are periodic and frames fixed-size, so without
				// a seed-drawn rate (within 2% of 3 Gbps) the router's
				// virtual behaviour would not depend on the seed at all.
				OfferedBpsPerPort: 3e9 * (1 + 0.02*(2*unitFloat(genSeed(seed, -1))-1)),
			}), nil
		},
	},
	{
		name:   "ipsec-alb-caida",
		warmup: 10 * simtime.Millisecond, duration: 110 * simtime.Millisecond,
		apps:          []string{"ipsec"},
		subSeeds:      3,
		traceCapacity: 200_000,
		build: func(seed uint64, w *workload) (core.Config, error) {
			text, err := bench.AppConfig("ipsec", "adaptive")
			if err != nil {
				return core.Config{}, err
			}
			return w.base(seed, core.Config{
				Topology:          sysinfo.DefaultTopology(),
				GraphConfig:       text,
				Generator:         bench.GeneratorFor("ipsec", 0, genSeed(seed, 0)),
				OfferedBpsPerPort: 10e9,
			}), nil
		},
	},
	{
		name:   "tenants-faults",
		warmup: 5 * simtime.Millisecond, duration: 100 * simtime.Millisecond,
		apps:          tenantApps,
		subSeeds:      9,
		traceCapacity: 100_000,
		build: func(seed uint64, w *workload) (core.Config, error) {
			tenants := make([]core.Tenant, len(tenantApps))
			for i, app := range tenantApps {
				text, err := bench.AppConfig(app, "adaptive")
				if err != nil {
					return core.Config{}, err
				}
				tenants[i] = core.Tenant{
					Name:        app,
					GraphConfig: text,
					Share:       1,
					Generator:   bench.GeneratorFor(app, 64, genSeed(seed, i)),
				}
				if app == "ipsec" {
					tenants[i].RateScale = 2 // the noisy neighbour
				}
			}
			// A device-0 outage, then, after recovery, a corruption window
			// on the same device, both placed inside the measured span.
			d := w.duration
			at := func(frac float64) simtime.Time { return w.warmup + simtime.Time(frac*float64(d)) }
			plan := fault.GPUOutage(at(0.15), at(0.35), 0)
			plan.Events = append(plan.Events, fault.Corruption(at(0.5), at(0.75), 0, 1, 0x5a).Events...)
			return w.base(seed, core.Config{
				Topology:          sysinfo.SingleSocketTopology(4, 2),
				Tenants:           tenants,
				OfferedBpsPerPort: 2e9,
				Overload:          overload.Defaults(),
				FaultPlan:         plan,
				Integrity:         &integrity.Config{SampleRate: 0.05},
			}), nil
		},
	},
}

// base fills the settings every workload shares.
func (w *workload) base(seed uint64, cfg core.Config) core.Config {
	cfg.Warmup = w.warmup
	cfg.Duration = w.duration
	cfg.Seed = seed
	cfg.LatencySample = 1
	return cfg
}

// config builds the workload's run configuration for a seed.
func (w *workload) config(seed uint64) (core.Config, error) { return w.build(seed, w) }

// generators returns each hosted app's traffic generator, in app order.
func generators(cfg core.Config) []netio.Generator {
	if len(cfg.Tenants) == 0 {
		return []netio.Generator{cfg.Generator}
	}
	out := make([]netio.Generator, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		out[i] = t.Generator
	}
	return out
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// subSeed derives the j-th sub-seed of a workload seed; sub-seed 0 is the
// seed itself.
func subSeed(seed uint64, j int) uint64 {
	if j == 0 {
		return seed
	}
	return genSeed(seed, 1000+j)
}

// genSeed derives the i-th generator seed from the workload seed, so that
// the system seed and every traffic stream change together with it.
func genSeed(seed uint64, i int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x
}

// unitFloat maps a seed to [0, 1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }
