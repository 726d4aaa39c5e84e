package main

// metricDef names one printed metric. BENCHMARK.json lists the same names;
// the benchmark's tests hold the two lists equal.
type metricDef struct {
	Name string
	Unit string
}

// endToEndMetrics are the untraced runs' metrics. Host-time and memory
// figures are medians over the runs; virtual-time figures repeat exactly
// for a seed.
var endToEndMetrics = []metricDef{
	{"sim_s_per_s", "s/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_pkt", "count"},
	{"alloc_bytes_per_pkt", "B"},
	{"tx_gbps", "Gbps"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"lat_p999_us", "us"},
	{"delivered_ratio", "ratio"},
}

// elementClasses are the element classes of every workload's graphs; each
// gets a processed-packets and a virtual-cycles metric (zero where a
// workload does not use the class).
var elementClasses = []string{
	"FromInput", "CheckIPHeader", "CheckIP6Header", "LoadBalance",
	"IPLookup", "DecIPTTL", "LookupIP6Route", "DecIP6HLIM",
	"IPsecESPencap", "IPsecAES", "IPsecHMAC",
	"IDSMatchAC", "IDSMatchRE", "EchoBack", "ToOutput",
}

// hostLayers are the buckets of the traced run's CPU profile: the module's
// packages, runtime (malloc and GC), and other (every sample with no module
// frame that is not malloc or GC, and the benchmark's own frames).
var hostLayers = []string{
	"gen", "netio", "mempool", "packet", "batch", "graph", "element",
	"apps.ipv4", "apps.ipv6", "apps.ipsec", "apps.ids",
	"offload", "gpu", "lb", "overload", "integrity", "fault", "sched",
	"simtime", "stats", "rng", "core", "trace", "runtime", "other",
}

// perLayerMetrics lists the traced run's metrics in print order.
func perLayerMetrics() []metricDef {
	m := []metricDef{
		{"gen.fill_ns_per_pkt", "ns"},
		{"gen.fill_calls", "count"},
		{"gen.allocs_per_fill", "count"},
		{"netio.rx_delivered", "count"},
		{"netio.rx_dropped", "count"},
		{"netio.rx_backlog_hwm", "count"},
		{"mempool.alloc_failed", "count"},
		{"mempool.outstanding_end", "count"},
		{"graph.batches", "count"},
		{"graph.splits", "count"},
		{"graph.drops", "count"},
	}
	for _, c := range elementClasses {
		m = append(m, metricDef{"element." + c + ".processed", "count"}, metricDef{"element." + c + ".cycles", "cycles"})
	}
	m = append(m,
		metricDef{"apps.ipv4.fib_build_s", "s"},
		metricDef{"apps.ipv6.fib_build_s", "s"},
		metricDef{"apps.ids.compile_s", "s"},
		metricDef{"apps.ids.ac_build_s", "s"},
		metricDef{"apps.ipsec.sadb_build_s", "s"},
		metricDef{"apps.ipv4.lookup_ns", "ns"},
		metricDef{"apps.ipv6.lookup_ns", "ns"},
		metricDef{"apps.ipsec.esp_ns_per_pkt", "ns"},
		metricDef{"apps.ipsec.allocs_per_pkt", "count"},
		metricDef{"apps.ids.scan_ns_per_kb", "ns"},
		metricDef{"offload.pkts", "count"},
		metricDef{"offload.pkts_per_task", "count"},
		metricDef{"offload.fallback_pkts", "count"},
		metricDef{"gpu.tasks", "count"},
		metricDef{"gpu.kernel_busy_frac", "ratio"},
		metricDef{"gpu.copy_busy_frac", "ratio"},
		metricDef{"gpu.max_queue_wait_us", "us"},
		metricDef{"gpu.h2d_bytes_per_pkt", "B"},
		metricDef{"gpu.rejected_tasks", "count"},
		metricDef{"lb.final_w", "ratio"},
		metricDef{"lb.updates", "count"},
		metricDef{"overload.shed_pkts", "count"},
		metricDef{"overload.peak_level", "level"},
		metricDef{"fault.failed_tasks", "count"},
		metricDef{"fault.timed_out_tasks", "count"},
		metricDef{"integrity.checks", "count"},
		metricDef{"integrity.mismatches", "count"},
		metricDef{"integrity.quarantined_pkts", "count"},
	)
	for _, t := range tenantApps {
		m = append(m, metricDef{"tenant." + t + ".tx_gbps", "Gbps"}, metricDef{"tenant." + t + ".lat_p999_us", "us"})
	}
	m = append(m,
		metricDef{"simtime.events", "count"},
		metricDef{"simtime.host_ns_per_event", "ns"},
	)
	for _, l := range hostLayers {
		m = append(m, metricDef{l + ".host_share", "ratio"})
	}
	return append(m,
		metricDef{"host.wall_sim_s_per_s", "s/s"},
		metricDef{"host.wall_setup_s", "s"},
		metricDef{"host.ref_kernel_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.dropped_events", "count"},
		metricDef{"stats.lat_samples", "count"},
	)
}
