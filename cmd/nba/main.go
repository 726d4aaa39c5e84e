// Command nba runs a packet-processing pipeline described in the NBA
// configuration language on the simulated platform and reports throughput,
// drops and latency.
//
// Usage:
//
//	nba -config router.click -gbps 10 -size 64 -duration 100ms
//	nba -app ipsec -lb adaptive -gbps 10 -size 256
//	nba -app ipsec -lb fixed=0.8 -trace caida.nbatrace
//	nba -tenants ipv4=2,ipsec -gbps 10 -size 64
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/gen"
	"nba/internal/netio"
	"nba/internal/simtime"
)

func main() {
	var (
		configPath = flag.String("config", "", "pipeline configuration file (.click)")
		app        = flag.String("app", "", "built-in app: l2fwd, echo, ipv4, ipv6, ipsec, ids")
		lbAlg      = flag.String("lb", "cpu", "load balancer: cpu, gpu, fixed=<f>, adaptive")
		gbps       = flag.Float64("gbps", 10, "offered load per port (Gbps)")
		size       = flag.Int("size", 64, "frame size in bytes; 0 = synthetic CAIDA mix")
		workers    = flag.Int("workers", 0, "worker threads per socket (0 = max)")
		duration   = flag.Duration("duration", 50*time.Millisecond, "measured (virtual) duration")
		warmup     = flag.Duration("warmup", 10*time.Millisecond, "warmup (virtual)")
		tenants    = flag.String("tenants", "", "co-host built-in apps as tenants: app[=share],app[=share],... (overrides -config/-app)")
		trace      = flag.String("trace", "", "replay an nbatrace file instead of synthetic traffic")
		pcapOut    = flag.String("pcap", "", "capture the first 1000 transmitted frames to a pcap file")
		verbose    = flag.Bool("v", false, "print per-element statistics")
		seed       = flag.Uint64("seed", 42, "simulation seed")
	)
	flag.Parse()

	spec := bench.RunSpec{
		App:  *app,
		LB:   *lbAlg,
		Size: *size,
		Config: core.Config{
			OfferedBpsPerPort: *gbps * 1e9,
			WorkersPerSocket:  *workers,
			Warmup:            simtime.Time(warmup.Nanoseconds()) * simtime.Nanosecond,
			Duration:          simtime.Time(duration.Nanoseconds()) * simtime.Nanosecond,
			Seed:              *seed,
		},
	}

	switch {
	case *tenants != "":
		ts, err := parseTenants(*tenants, *lbAlg, *size, *seed)
		if err != nil {
			fatal(err)
		}
		spec.Tenants = ts
	case *configPath != "":
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		spec.GraphConfig = string(data)
	case *app == "":
		fmt.Fprintln(os.Stderr, "nba: need -config or -app")
		flag.Usage()
		os.Exit(2)
	}

	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			fatal(err)
		}
		tr, err := gen.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		tr.Seed = *seed
		spec.Generator = tr
	}

	if *pcapOut != "" {
		spec.CaptureTx = 1000
	}
	r, err := bench.Execute(spec)
	if err != nil {
		fatal(err)
	}
	if *pcapOut != "" {
		f, err := os.Create(*pcapOut)
		if err != nil {
			fatal(err)
		}
		if err := netio.WritePcap(f, r.Capture); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("captured %d frames to %s\n", len(r.Capture), *pcapOut)
	}

	fmt.Printf("measured window:      %v\n", r.Measured)
	fmt.Printf("throughput:           %.2f Gbps (%.2f Mpps)\n", r.TxGbps, r.TxPPS/1e6)
	for i, g := range r.PerPortGbps {
		fmt.Printf("  port %d:             %.2f Gbps\n", i, g)
	}
	fmt.Printf("rx delivered/dropped: %d / %d (alloc failures %d)\n", r.RxDelivered, r.RxDropped, r.AllocFailed)
	fmt.Printf("graph drops:          %d\n", r.GraphDrops)
	fmt.Printf("offloaded packets:    %d\n", r.OffloadedPackets)
	for _, tr := range r.Tenants {
		fmt.Printf("tenant %-12s %.2f Gbps, rx %d/%d, shed %d, p99 %v\n",
			tr.Name+":", tr.TxGbps, tr.RxDelivered, tr.RxDropped, tr.ShedPackets,
			tr.Latency.Percentile(99))
	}
	if r.Latency.Count() > 0 {
		fmt.Printf("latency min/avg/p99:  %.1f / %.1f / %.1f us\n",
			r.Latency.Min().Micros(), r.Latency.Mean().Micros(), r.Latency.Percentile(99).Micros())
	}
	if len(r.LBTrace) > 0 {
		fmt.Printf("final offload frac:   %.2f\n", r.FinalW)
	}
	for i, d := range r.DeviceStats {
		if d.Tasks == 0 {
			continue
		}
		fmt.Printf("device %d: %d tasks, %d pkts (%.0f pkts/task), kernel busy %v, copy busy %v, host busy %v, maxwait %v\n",
			i, d.Tasks, d.Packets, float64(d.Packets)/float64(d.Tasks),
			d.KernelBusy, d.CopyBusy, d.HostBusy, d.MaxQueueWait)
	}
	if *verbose {
		fmt.Println("per-element statistics:")
		names := make([]string, 0, len(r.NodeStats))
		for n := range r.NodeStats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			st := r.NodeStats[n]
			fmt.Printf("  %-28s processed=%-10d dropped=%-8d splits=%-6d reuses=%d\n",
				n, st.Processed, st.Dropped, st.Splits, st.Reuses)
		}
	}
}

// parseTenants turns "app[=share],app[=share],..." into a tenant list. Each
// tenant runs the built-in app's pipeline with the shared -lb algorithm and
// its own generator stream (seeded per slot so co-tenants' traffic differs).
func parseTenants(list, lbAlg string, size int, seed uint64) ([]core.Tenant, error) {
	var out []core.Tenant
	for i, item := range strings.Split(list, ",") {
		name, shareStr, hasShare := strings.Cut(strings.TrimSpace(item), "=")
		share := 1.0
		if hasShare {
			f, err := strconv.ParseFloat(shareStr, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad share %q", name, shareStr)
			}
			share = f
		}
		cfgText, err := bench.AppConfig(name, lbAlg)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Tenant{
			Name:        name,
			GraphConfig: cfgText,
			Share:       share,
			Generator:   bench.GeneratorFor(name, size, seed+1+uint64(i)),
		})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nba:", err)
	os.Exit(1)
}
