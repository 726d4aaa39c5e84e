// Command nbatrace records, summarizes and diffs deterministic run traces.
//
// Because every run is a pure function of configuration and seed, two
// recordings of the same run must be byte-identical; `nbatrace diff` verifies
// that and, when a code change altered behaviour, reports the first
// divergence (event index, virtual timestamp, payload delta).
//
// Usage:
//
//	nbatrace record -app ipv4 -lb cpu -gbps 1 -o run.jsonl
//	nbatrace record -app ipsec -lb fixed=0.8 -chrome run.chrome.json -o run.jsonl
//	nbatrace record -tenants ipv4,ipsec -o mt.jsonl
//	nbatrace record -scenario ipsec_fixed08_faults -o outage.jsonl
//	nbatrace scenarios
//	nbatrace summary run.jsonl
//	nbatrace diff a.jsonl b.jsonl
//
// -scenario records one entry of the scenario list in internal/bench (the
// runs the golden trace suite pins), which `nbatrace scenarios` prints. Its
// armed entries inject the canonical GPU outage, an overload burst with
// overload control armed, a silent-corruption window with the integrity
// sentinel at full sampling, two co-resident tenants, or tenant churn
// through the reconfiguration epoch protocol; fault and reconfig plans are
// part of the run identity, so armed recordings replay and diff exactly like
// plain ones. A scenario fixes the whole run, so it takes no other run flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/simtime"
	"nba/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "summary":
		summary(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	case "scenarios":
		for _, sc := range bench.Scenarios() {
			fmt.Println(sc.Name)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  nbatrace record [flags] -o <out.jsonl>   run a pipeline and record its trace
  nbatrace scenarios                       list the names -scenario accepts
  nbatrace summary <trace.jsonl>           per-element / per-device profile
  nbatrace diff <a.jsonl> <b.jsonl>        first-divergence report`)
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("nbatrace record", flag.ExitOnError)
	var (
		app      = fs.String("app", "ipv4", "built-in app: l2fwd, echo, ipv4, ipv6, ipsec, ids")
		tenants  = fs.String("tenants", "", "co-host built-in apps as equal-share tenants: app,app,... (overrides -app)")
		lbAlg    = fs.String("lb", "cpu", "load balancer: cpu, gpu, fixed=<f>, adaptive")
		gbps     = fs.Float64("gbps", 1, "offered load per port (Gbps)")
		size     = fs.Int("size", 64, "frame size in bytes; 0 = synthetic CAIDA mix")
		workers  = fs.Int("workers", 1, "worker threads per socket (0 = max)")
		duration = fs.Duration("duration", 2*time.Millisecond, "measured (virtual) duration")
		warmup   = fs.Duration("warmup", 200*time.Microsecond, "warmup (virtual)")
		seed     = fs.Uint64("seed", 42, "simulation seed")
		events   = fs.Int("events", 1<<16, "ring capacity: trace events retained for export")
		scenario = fs.String("scenario", "", "record a named scenario (see nbatrace scenarios) instead of a flag-built run")
		out      = fs.String("o", "", "output JSONL path (required)")
		chrome   = fs.String("chrome", "", "also export Chrome trace_event JSON to this path")
	)
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "nbatrace record: -o is required")
		fs.Usage()
		os.Exit(2)
	}

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
	appLabel := *app
	if *tenants != "" {
		appLabel = "tenants:" + *tenants
	}
	label := fmt.Sprintf("app=%s lb=%s gbps=%g size=%d workers=%d seed=%d",
		appLabel, *lbAlg, *gbps, *size, *workers, *seed)
	switch {
	case *scenario != "":
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scenario", "events", "o", "chrome":
			default:
				fatal(fmt.Errorf("-%s cannot be combined with -scenario", f.Name))
			}
		})
		sc, err := bench.ScenarioByName(*scenario)
		if err != nil {
			fatal(err)
		}
		spec, label = sc.Spec(), "scenario="+sc.Name
	case *tenants != "":
		// Tenant recordings carry every tenant's events on one timeline
		// (each tagged with its tenant index), so multi-tenant runs diff
		// and replay exactly like single-app ones.
		ts, err := bench.AppTenants(strings.Split(strings.ReplaceAll(*tenants, " ", ""), ","), *lbAlg, *size, *seed)
		if err != nil {
			fatal(err)
		}
		spec.Tenants = ts
	}
	tr := trace.New(trace.Options{Capacity: *events})
	spec.Tracer = tr
	if _, err := bench.Execute(spec); err != nil {
		fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := tr.WriteJSONL(f, label); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d events (%d retained) to %s\n", tr.Total(), tr.Total()-tr.Dropped(), *out)
	fmt.Printf("digest: %s\n", tr.Digest())

	if *chrome != "" {
		cf, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChrome(cf, tr.Events()); err != nil {
			cf.Close()
			fatal(err)
		}
		if err := cf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace: %s (load in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
}

func summary(args []string) {
	if len(args) != 1 {
		usage()
	}
	f := readTrace(args[0])
	fmt.Printf("%s\n", f.Meta.Label)
	fmt.Printf("digest: %s (total %d, %d not retained)\n\n", f.Meta.Digest, f.Meta.Total, f.Meta.Dropped)
	if err := trace.Summarize(f.Events).Write(os.Stdout); err != nil {
		fatal(err)
	}
}

func diff(args []string) {
	if len(args) != 2 {
		usage()
	}
	a, b := readTrace(args[0]), readTrace(args[1])

	if a.Meta.Digest == b.Meta.Digest && a.Meta.Total == b.Meta.Total {
		fmt.Printf("zero divergence: both traces digest to %s over %d events\n", a.Meta.Digest, a.Meta.Total)
		return
	}

	fmt.Printf("traces diverge:\n  A: %s  (%d events, %s)\n  B: %s  (%d events, %s)\n",
		args[0], a.Meta.Total, a.Meta.Digest, args[1], b.Meta.Total, b.Meta.Digest)
	if lo, hi, div := trace.DiffCheckpoints(a.Checkpoints, b.Checkpoints); div {
		fmt.Printf("checkpoint chains diverge in event window (%d, %d]\n", lo, hi)
	}
	if d := trace.Diff(a.Events, b.Events); d != nil {
		// Positional index within the retained windows; with full traces
		// (Dropped == 0) this is the absolute event index.
		fmt.Printf("first retained-event divergence: %s\n", d.String())
	} else {
		fmt.Println("retained events are identical: the divergence is in events" +
			" that fell out of the ring; re-record with a larger -events")
	}
	os.Exit(1)
}

func readTrace(path string) *trace.File {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tf, err := trace.ReadJSONL(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return tf
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nbatrace:", err)
	os.Exit(1)
}
