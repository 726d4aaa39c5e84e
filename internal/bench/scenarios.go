package bench

import (
	"fmt"
	"strings"

	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/integrity"
	"nba/internal/overload"
	"nba/internal/reconfig"
	"nba/internal/simtime"
)

// Scenario is one named, fully specified short run. The golden trace suite
// pins every scenario's digest, `nbatrace record -scenario` records any of
// them, and scripts/check.sh records each one twice and diffs the traces.
type Scenario struct {
	Name string
	// Spec builds a fresh spec per call: generators keep per-run state, so
	// two runs of a scenario never share one.
	Spec func() RunSpec
}

// Scenarios returns the scenario list in its fixed order: every sample app
// CPU-only and offloaded at a fixed fraction (so the offload split is
// deterministic without a controller transient), then the armed runs (GPU
// outage, overload burst, silent corruption, co-resident tenants, tenant
// churn).
func Scenarios() []Scenario {
	var out []Scenario
	for _, app := range []string{"ipv4", "ipv6", "ipsec", "ids"} {
		for _, lb := range []string{"cpu", "fixed=0.8"} {
			name := app + "_" + strings.NewReplacer("=", "", ".", "").Replace(lb)
			out = append(out, Scenario{name, func() RunSpec { return scenarioSpec(app, lb, 1e9) }})
		}
	}
	return append(out,
		Scenario{"ipsec_fixed08_faults", func() RunSpec {
			s := scenarioSpec("ipsec", "fixed=0.8", 1e9)
			s.FaultPlan = fault.GPUOutage(s.span()/4, s.span()/2, 0)
			return s
		}},
		Scenario{"ipsec_fixed08_overload_3gbps", func() RunSpec {
			s := scenarioSpec("ipsec", "fixed=0.8", 3e9)
			s.Overload = overload.Defaults()
			s.FaultPlan = &fault.Plan{Events: fault.Burst(s.span()/4, s.span()/2, 2.5)}
			return s
		}},
		Scenario{"ipsec_fixed08_corrupt", func() RunSpec {
			s := scenarioSpec("ipsec", "fixed=0.8", 1e9)
			s.FaultPlan = fault.Corruption(s.span()/4, s.span()/2, 0, 1, 0x5a)
			s.Integrity = &integrity.Config{SampleRate: 1}
			return s
		}},
		Scenario{"tenants_ipv4_ipsec", func() RunSpec {
			s := scenarioSpec("ipv4", "cpu", 1e9)
			s.Tenants = mustAppTenants([]string{"ipv4", "ipsec"}, "cpu", s.Seed)
			return s
		}},
		Scenario{"tenants_ipv4_ids_reconfig", func() RunSpec {
			s := scenarioSpec("ipv4", "cpu", 1e9)
			s.Tenants = mustAppTenants([]string{"ipv4", "ids"}, "cpu", s.Seed)
			churn := mustAppTenants([]string{"ipsec"}, "cpu", s.Seed+100)[0]
			churn.Name = "churn"
			s.LatentTenants = []core.Tenant{churn}
			s.Reconfig = reconfig.Churn(s.span(), "churn")
			return s
		}},
	)
}

// ScenarioByName finds one scenario.
func ScenarioByName(name string) (Scenario, error) {
	var names []string
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	return Scenario{}, fmt.Errorf("bench: unknown scenario %q (try: %s)", name, strings.Join(names, ", "))
}

// scenarioSpec is the short canonical run every scenario starts from: 64 B
// frames, one worker per socket, 200 µs warmup, 2 ms measured, seed 42.
func scenarioSpec(app, lb string, bpsPerPort float64) RunSpec {
	return RunSpec{App: app, LB: lb, Size: 64, Config: core.Config{
		OfferedBpsPerPort: bpsPerPort,
		WorkersPerSocket:  1,
		Warmup:            200 * simtime.Microsecond,
		Duration:          2 * simtime.Millisecond,
		Seed:              42,
	}}
}

// span is the spec's whole virtual timeline, warmup included.
func (s RunSpec) span() simtime.Time { return s.Warmup + s.Duration }

// AppTenants builds one equal-share tenant per sample app, named after it,
// each running the app's pipeline under lb with its own generator (tenant i
// seeded seed+1+i).
func AppTenants(apps []string, lb string, size int, seed uint64) ([]core.Tenant, error) {
	out := make([]core.Tenant, 0, len(apps))
	for i, app := range apps {
		text, err := AppConfig(app, lb)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Tenant{
			Name:        app,
			GraphConfig: text,
			Share:       1,
			Generator:   GeneratorFor(app, size, seed+1+uint64(i)),
		})
	}
	return out, nil
}

func mustAppTenants(apps []string, lb string, seed uint64) []core.Tenant {
	ts, err := AppTenants(apps, lb, 64, seed)
	if err != nil {
		panic(err)
	}
	return ts
}
