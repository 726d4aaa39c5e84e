package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nba/internal/simtime"
)

// tiny returns a copy of the named workload shortened to a few virtual
// milliseconds, for smoke tests.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.warmup, c.duration = simtime.Millisecond, 4*simtime.Millisecond
	return &c
}

// inProcess runs children inside the test process against w (the -workload
// argument is ignored so that the shortened copy is used), round-tripping
// each record through JSON as the real child process does.
func inProcess(t *testing.T, w *workload) childFunc {
	return func(out any, args ...string) (float64, error) {
		t.Helper()
		var v any
		get := func(flag string) string {
			for i, a := range args {
				if a == flag && i+1 < len(args) {
					return args[i+1]
				}
			}
			return ""
		}
		if get("-child") == "ref" {
			return 0, json.Unmarshal([]byte(strconv.FormatFloat(refKernel(), 'g', -1, 64)), out)
		}
		seed, err := strconv.ParseUint(get("-seed"), 10, 64)
		if err != nil {
			t.Fatalf("child args %v: %v", args, err)
		}
		switch get("-child") {
		case "timed":
			v, err = timedChild(w, seed)
		case "traced":
			var runS float64
			if err := json.Unmarshal([]byte(get("-untraced-run-s")), &runS); err != nil {
				t.Fatal(err)
			}
			v, err = tracedChild(w, seed, tracedOptions{
				expectFingerprint: get("-expect-fingerprint"),
				untracedRunS:      runS,
				layers:            strings.Contains(strings.Join(args, " "), "-layers"),
				traceDir:          get("-trace-dir"),
			})
		}
		if err != nil {
			return 0, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return 0, err
		}
		return 1, json.Unmarshal(b, out)
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func namesUnits(list []struct{ Name, Unit string }) map[string]string {
	m := map[string]string{}
	for _, e := range list {
		m[e.Name] = e.Unit
	}
	return m
}

func printed(r *result) map[string]string {
	m := map[string]string{}
	for k, v := range r.Metrics {
		m[k] = v.Unit
	}
	return m
}

func sameKeys(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for k, u := range want {
		if gu, ok := got[k]; !ok || gu != u {
			t.Errorf("%s: metric %s: printed unit %q, BENCHMARK.json %q", what, k, gu, u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: printed metric %s is not in BENCHMARK.json", what, k)
		}
	}
}

func TestBenchmarkJSONWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark workloads %v", got, want)
	}
}

// TestSmoke runs every workload, shortened, through the whole command path
// in both modes and checks the printed metrics against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tw := tiny(t, w.name)
			var stderr strings.Builder
			for _, layers := range []bool{false, true} {
				res := orchestrate(tw, 2, 0, layers, t.TempDir(), inProcess(t, tw), &stderr)
				if !res.Correct || res.Failed != 0 || res.Attempted != tw.subSeeds+1 {
					t.Fatalf("layers=%v: correct=%v attempted=%d failed=%d\n%s", layers, res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if !layers {
					sameKeys(t, "end_to_end", printed(res), namesUnits(bj.EndToEnd))
					continue
				}
				sameKeys(t, "per_layer", printed(res), namesUnits(bj.PerLayer))
				if d := res.Metrics["trace.dropped_events"].Value; d != 0 {
					t.Errorf("trace.dropped_events = %v", d)
				}
				var sum float64
				for _, l := range hostLayers {
					sum += res.Metrics[l+".host_share"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("host shares sum to %v", sum)
				}
			}
		})
	}
}

// TestRepeatable checks that two runs of one seed agree: identical virtual
// metrics and fingerprints, allocations within 0.1%, and a traced run that
// reproduces the untraced fingerprint without dropping trace events.
func TestRepeatable(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tw := tiny(t, w.name)
			a, err := timedChild(tw, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := timedChild(tw, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Problems)+len(b.Problems) > 0 {
				t.Fatalf("checks failed: %v %v", a.Problems, b.Problems)
			}
			if a.Fingerprint != b.Fingerprint || a.TxGbps != b.TxGbps || a.LatP50Us != b.LatP50Us ||
				a.LatP99Us != b.LatP99Us || a.LatP999Us != b.LatP999Us || a.LossRatio != b.LossRatio {
				t.Errorf("virtual metrics differ:\n%+v\n%+v", a, b)
			}
			if d := math.Abs(float64(a.Mallocs)-float64(b.Mallocs)) / float64(a.Mallocs); d > 0.001 {
				t.Errorf("allocations differ by %.4f%%: %d vs %d", 100*d, a.Mallocs, b.Mallocs)
			}
			tr, err := tracedChild(tw, 3, tracedOptions{expectFingerprint: a.Fingerprint})
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Problems) > 0 {
				t.Errorf("traced run: %v", tr.Problems)
			}
			if tr.Fingerprint != a.Fingerprint {
				t.Errorf("traced fingerprint %s, untraced %s", tr.Fingerprint, a.Fingerprint)
			}
			if tr.Layers["trace.dropped_events"] != 0 {
				t.Errorf("trace.dropped_events = %v", tr.Layers["trace.dropped_events"])
			}
		})
	}
}

// TestTamperedReportFails checks that the correctness checks catch a broken
// conservation identity, a leaked buffer, a changed fingerprint and a
// changed digest.
func TestTamperedReportFails(t *testing.T) {
	tw := tiny(t, "tenants-faults")
	cfg, err := tw.config(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := execute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.rep
	if p := checkConservation(rep); len(p) > 0 {
		t.Fatalf("untampered report fails: %v", p)
	}
	fp, err := fingerprint(rep)
	if err != nil {
		t.Fatal(err)
	}

	tampered := *rep
	tampered.TxPackets++
	if len(checkConservation(&tampered)) == 0 {
		t.Error("a report transmitting one packet too many passes")
	}
	if tfp, _ := fingerprint(&tampered); tfp == fp {
		t.Error("tampering does not change the fingerprint")
	}
	tampered = *rep
	tampered.Tenants = append(tampered.Tenants[:0:0], rep.Tenants...)
	tampered.Tenants[1].QuarantinedPackets++
	if len(checkConservation(&tampered)) == 0 {
		t.Error("a report breaking one tenant's conservation passes")
	}
	tampered = *rep
	tampered.PoolOutstanding = 1
	if len(checkConservation(&tampered)) == 0 {
		t.Error("a report with a leaked packet buffer passes")
	}

	if p := checkIdentity("tenants-faults", 4, fp, "sha256:other", ""); len(p) == 0 {
		t.Error("a fingerprint mismatch passes")
	}
	pinned, err := pinnedDigest("ipv4-cpu-64b")
	if err != nil || pinned == "" {
		t.Fatalf("no pinned digest for ipv4-cpu-64b: %v", err)
	}
	if p := checkIdentity("ipv4-cpu-64b", defaultSeed, fp, fp, pinned); len(p) != 0 {
		t.Errorf("the pinned digest fails: %v", p)
	}
	p := checkIdentity("ipv4-cpu-64b", defaultSeed, fp, fp, "sha256:altered")
	if len(p) != 1 || !strings.Contains(p[0], "workload changed: refresh BENCHMARK.json deliberately") {
		t.Errorf("an altered digest gives %v", p)
	}
}

// TestPinnedDigests runs each full workload traced at the default seed and
// checks its digest against digests.json.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length runs")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tr, err := tracedChild(w, defaultSeed, tracedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Problems) > 0 {
				t.Error(tr.Problems)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/internal/fips140/sha1.block", "crypto/hmac.(*hmac).Write", "nba/internal/apps/ipsec.Authenticate", "nba/internal/core.(*worker).iterate"}, "apps.ipsec"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "nba/internal/rng.New", "nba/internal/gen.perPacket"}, "runtime"},
		{[]string{"math.archLog", "math.Log", "nba/internal/stats.bucketOf", "nba/internal/stats.(*Hist).Record"}, "stats"},
		{[]string{"nba/internal/mempool.(*Pool[go.shape.struct { nba/internal/packet.buf [1664]uint8 }]).Get"}, "mempool"},
		{[]string{"nba/internal/invariant.(*Checker).Check"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"time.now", "main.fillTimer.Fill", "nba/internal/netio.(*RxQueue).Poll"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
