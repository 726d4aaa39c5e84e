package main

import (
	"fmt"
	"runtime"
	"time"

	"nba/internal/apps/ids"
	"nba/internal/apps/ipsec"
	"nba/internal/apps/ipv4"
	"nba/internal/apps/ipv6"
	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/netio"
	"nba/internal/packet"
)

const (
	// replayPackets is how many generated packets each per-op replay cycles
	// over.
	replayPackets = 2048
	// replayMin is the least host time one replay is repeated for.
	replayMin = 300 * time.Millisecond
)

// replayOp is the timing of one exported layer function.
type replayOp struct {
	Fn          string  `json:"fn"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type replayResult struct {
	metrics map[string]float64
	ops     []replayOp
}

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink int

// timeOps repeats pass (which performs n operations) for at least replayMin
// and reports the mean host time and heap allocations per operation.
func (r *replayResult) timeOps(log *spanLog, fn string, n int, pass func()) replayOp {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < replayMin {
		pass()
		passes++
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	ops := passes * n
	op := replayOp{
		Fn:          fn,
		Ops:         ops,
		NsPerOp:     float64(end.Sub(start).Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}
	log.add("replay."+fn, "replay", start, end)
	r.ops = append(r.ops, op)
	return op
}

// packetsFor generates replayPackets packets with the generator the
// workload gives app, or the app's standard 64 B generator when the
// workload does not host it.
func packetsFor(w *workload, cfg core.Config, app string) []packet.Packet {
	gens := generators(cfg)
	var g netio.Generator
	for i, a := range w.apps {
		if a == app {
			g = gens[i]
		}
	}
	if g == nil {
		g = bench.GeneratorFor(app, 64, genSeed(cfg.Seed, len(w.apps)))
	}
	pkts := make([]packet.Packet, replayPackets)
	for i := range pkts {
		g.Fill(&pkts[i], i%8, uint64(i))
	}
	return pkts
}

// replayLayers times the apps' exported set-up and per-packet functions on
// packets from the workload's own generators, the way the elements call
// them, and the generator's Fill.
func replayLayers(w *workload, cfg core.Config, log *spanLog) (*replayResult, error) {
	r := &replayResult{metrics: map[string]float64{}}
	var err error
	check := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}

	// gen: Fill of the workload's first generator.
	first := generators(cfg)[0]
	var scratch packet.Packet
	fill := r.timeOps(log, "gen.Fill", replayPackets, func() {
		for i := 0; i < replayPackets; i++ {
			first.Fill(&scratch, i%8, uint64(i))
		}
	})
	r.metrics["gen.allocs_per_fill"] = fill.AllocsPerOp

	// apps.ipv4: the IPLookup element's FIB ("entries=65536", "seed=42").
	var t4 *ipv4.Table
	op := r.timeOps(log, "ipv4.NewTable", 1, func() {
		var e error
		t4, e = ipv4.NewTable(ipv4.RandomRoutes(65536, 256, 42))
		check(e)
	})
	r.metrics["apps.ipv4.fib_build_s"] = op.NsPerOp / 1e9
	if err != nil {
		return nil, fmt.Errorf("replay ipv4: %w", err)
	}
	p4 := packetsFor(w, cfg, "ipv4")
	op = r.timeOps(log, "ipv4.Lookup", len(p4), func() {
		for i := range p4 {
			sink += int(t4.Lookup(packet.IPv4Dst(p4[i].Data()[packet.EthHdrLen:])))
		}
	})
	r.metrics["apps.ipv4.lookup_ns"] = op.NsPerOp

	// apps.ipv6: the LookupIP6Route element's FIB.
	var t6 *ipv6.Table
	op = r.timeOps(log, "ipv6.NewTable", 1, func() {
		var e error
		t6, e = ipv6.NewTable(ipv6.RandomRoutes(65536, 256, 42))
		check(e)
	})
	r.metrics["apps.ipv6.fib_build_s"] = op.NsPerOp / 1e9
	if err != nil {
		return nil, fmt.Errorf("replay ipv6: %w", err)
	}
	p6 := packetsFor(w, cfg, "ipv6")
	op = r.timeOps(log, "ipv6.Lookup", len(p6), func() {
		for i := range p6 {
			sink += int(t6.Lookup(packet.IPv6DstAddr(p6[i].Data()[packet.EthHdrLen:])))
		}
	})
	r.metrics["apps.ipv6.lookup_ns"] = op.NsPerOp

	// apps.ids: the IDSMatchRE DFA and the IDSMatchAC automaton, scanning
	// what the elements scan (the frame after the Ethernet header).
	var dfa *ids.DFA
	op = r.timeOps(log, "ids.CompileRules", 1, func() {
		var e error
		dfa, e = ids.CompileRules(ids.DefaultRegexRules)
		check(e)
	})
	r.metrics["apps.ids.compile_s"] = op.NsPerOp / 1e9
	var ac *ids.AC
	op = r.timeOps(log, "ids.BuildAC", 1, func() {
		var e error
		ac, e = ids.BuildAC(ids.DefaultSignatures)
		check(e)
	})
	r.metrics["apps.ids.ac_build_s"] = op.NsPerOp / 1e9
	if err != nil {
		return nil, fmt.Errorf("replay ids: %w", err)
	}
	pids := packetsFor(w, cfg, "ids")
	var scanned int
	for i := range pids {
		scanned += pids[i].Length() - packet.EthHdrLen
	}
	dfaOp := r.timeOps(log, "ids.DFA.Match", len(pids), func() {
		for i := range pids {
			sink += dfa.Match(pids[i].Data()[packet.EthHdrLen:])
		}
	})
	acOp := r.timeOps(log, "ids.AC.Match", len(pids), func() {
		for i := range pids {
			sink += ac.Match(pids[i].Data()[packet.EthHdrLen:])
		}
	})
	bytesPerPkt := float64(scanned) / float64(len(pids))
	r.metrics["apps.ids.scan_ns_per_kb"] = (dfaOp.NsPerOp + acOp.NsPerOp) / bytesPerPkt * 1024

	// apps.ipsec: the elements' SADB ("sas=1024", default seed 99), then
	// ESP encapsulation, AES-CTR and HMAC-SHA1 per packet. Each operation
	// restores its input frame first, which the timing includes.
	var db *ipsec.SADB
	op = r.timeOps(log, "ipsec.NewSADB", 1, func() {
		var e error
		db, e = ipsec.NewSADB(1024, 99)
		check(e)
	})
	r.metrics["apps.ipsec.sadb_build_s"] = op.NsPerOp / 1e9
	if err != nil {
		return nil, fmt.Errorf("replay ipsec: %w", err)
	}
	plain := packetsFor(w, cfg, "ipsec")
	encapped := make([]packet.Packet, len(plain))
	encrypted := make([]packet.Packet, len(plain))
	for i := range plain {
		encapped[i] = plain[i]
		_, e := ipsec.Encap(&encapped[i], db)
		check(e)
		encrypted[i] = encapped[i]
		check(ipsec.Encrypt(&encrypted[i], db))
	}
	if err != nil {
		return nil, fmt.Errorf("replay ipsec: %w", err)
	}
	esp := r.timeOps(log, "ipsec.Encap+Encrypt+Authenticate", len(plain), func() {
		for i := range plain {
			scratch = plain[i]
			_, e := ipsec.Encap(&scratch, db)
			check(e)
			check(ipsec.Encrypt(&scratch, db))
			check(ipsec.Authenticate(&scratch, db))
		}
	})
	r.metrics["apps.ipsec.esp_ns_per_pkt"] = esp.NsPerOp
	r.metrics["apps.ipsec.allocs_per_pkt"] = esp.AllocsPerOp
	r.timeOps(log, "ipsec.Encap", len(plain), func() {
		for i := range plain {
			scratch = plain[i]
			_, e := ipsec.Encap(&scratch, db)
			check(e)
		}
	})
	r.timeOps(log, "ipsec.Encrypt", len(plain), func() {
		for i := range encapped {
			scratch = encapped[i]
			check(ipsec.Encrypt(&scratch, db))
		}
	})
	r.timeOps(log, "ipsec.Authenticate", len(plain), func() {
		for i := range encrypted {
			scratch = encrypted[i]
			check(ipsec.Authenticate(&scratch, db))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay ipsec: %w", err)
	}
	return r, nil
}
