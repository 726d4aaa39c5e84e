package trace_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nba/internal/bench"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace digests from the current code")

// scenarioSpec returns a fresh spec of the named bench scenario.
func scenarioSpec(t *testing.T, name string) bench.RunSpec {
	t.Helper()
	sc, err := bench.ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Spec()
}

// runTraced executes the spec with a fresh tracer attached and returns it.
func runTraced(t *testing.T, spec bench.RunSpec) *trace.Tracer {
	t.Helper()
	tr := trace.New(trace.Options{})
	spec.Tracer = tr
	if _, err := bench.Execute(spec); err != nil {
		t.Fatalf("%s/%s: %v", spec.App, spec.LB, err)
	}
	return tr
}

// golden is the pinned state of one canonical run.
type golden struct {
	Digest      string
	Total       uint64
	Checkpoints []trace.Checkpoint
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

func writeGolden(t *testing.T, name string, tr *trace.Tracer) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Golden trace digest for the %s run.\n", name)
	fmt.Fprintf(&sb, "# Regenerate intentionally with: go test ./internal/trace -run TestGoldenTraces -update\n")
	fmt.Fprintf(&sb, "digest %s\n", tr.Digest())
	fmt.Fprintf(&sb, "total %d\n", tr.Total())
	for _, cp := range tr.Checkpoints() {
		fmt.Fprintf(&sb, "cp %d %d %s\n", cp.Seq, int64(cp.At), cp.Digest)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string) golden {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var g golden
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		switch f[0] {
		case "digest":
			g.Digest = f[1]
		case "total":
			fmt.Sscanf(f[1], "%d", &g.Total)
		case "cp":
			var cp trace.Checkpoint
			var at int64
			fmt.Sscanf(f[1], "%d", &cp.Seq)
			fmt.Sscanf(f[2], "%d", &at)
			cp.At = simtime.Time(at)
			cp.Digest = f[3]
			g.Checkpoints = append(g.Checkpoints, cp)
		default:
			t.Fatalf("golden %s: unknown line %q", name, line)
		}
	}
	return g
}

// TestGoldenTraces pins the trace digest of every bench scenario. A failure
// means the run's event stream changed: either a regression, or an
// intentional behaviour change — in the latter case regenerate with -update
// and explain the change in the commit.
func TestGoldenTraces(t *testing.T) {
	for _, sc := range bench.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			tr := runTraced(t, sc.Spec())
			name := sc.Name
			if *update {
				writeGolden(t, name, tr)
				return
			}
			g := readGolden(t, name)
			if tr.Digest() == g.Digest && tr.Total() == g.Total {
				return
			}
			// First-divergence report: bracket with the checkpoint chains,
			// then show the retained events at the start of the window.
			t.Errorf("trace digest mismatch:\n  got  %s (%d events)\n  want %s (%d events)",
				tr.Digest(), tr.Total(), g.Digest, g.Total)
			lo, hi, div := trace.DiffCheckpoints(g.Checkpoints, tr.Checkpoints())
			if !div {
				// Chains agree over the common prefix: divergence is after the
				// last shared checkpoint.
				if n := len(g.Checkpoints); n > 0 {
					lo = g.Checkpoints[n-1].Seq
				}
				hi = tr.Total()
			}
			t.Errorf("first divergence in event window (%d, %d]", lo, hi)
			for _, ev := range tr.Events() {
				if ev.Seq >= lo && ev.Seq < lo+8 {
					t.Errorf("  event %d: at=%v kind=%s actor=%d name=%s a=%d b=%d c=%d d=%d",
						ev.Seq, ev.At, ev.Kind, ev.Actor, ev.Name, ev.A, ev.B, ev.C, ev.D)
				}
			}
		})
	}
}

// TestGoldenTracesUnchangedByEmptyReconfigPlan pins the reconfig disarm
// contract at the golden layer: attaching an empty (non-nil) reconfig plan to
// every scenario without a plan of its own must reproduce the committed
// golden digest byte-identically — arming the subsystem without scripting
// any epoch may not perturb the timeline at all.
func TestGoldenTracesUnchangedByEmptyReconfigPlan(t *testing.T) {
	for _, sc := range bench.Scenarios() {
		spec := sc.Spec()
		if spec.Reconfig != nil {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			spec.Reconfig = &reconfig.Plan{}
			tr := runTraced(t, spec)
			g := readGolden(t, sc.Name)
			if tr.Digest() != g.Digest || tr.Total() != g.Total {
				t.Errorf("empty reconfig plan perturbed the golden run:\n  got  %s (%d events)\n  want %s (%d events)",
					tr.Digest(), tr.Total(), g.Digest, g.Total)
			}
		})
	}
}

// TestGoldenRunsAreDeterministic re-executes one case and requires a
// bit-identical stream — the dynamic counterpart of cmd/nbalint's static
// determinism rules.
func TestGoldenRunsAreDeterministic(t *testing.T) {
	a := runTraced(t, scenarioSpec(t, "ipv4_fixed08"))
	b := runTraced(t, scenarioSpec(t, "ipv4_fixed08"))
	if a.Digest() != b.Digest() {
		d := trace.Diff(a.Events(), b.Events())
		t.Fatalf("same config+seed diverged: %v", d)
	}
}

// TestCostChangeBreaksGolden verifies the suite's sensitivity: flipping one
// element's cycle cost must change the digest and produce a first-divergence
// report naming that element.
func TestCostChangeBreaksGolden(t *testing.T) {
	base := runTraced(t, scenarioSpec(t, "ipv4_cpu"))

	cm := sysinfo.Default()
	ec := cm.Elements["IPLookup"]
	ec.Fixed++ // one cycle more per batch
	cm.Elements["IPLookup"] = ec
	spec := scenarioSpec(t, "ipv4_cpu")
	spec.CostModel = cm
	mod := runTraced(t, spec)

	if base.Digest() == mod.Digest() {
		t.Fatal("digest insensitive to a +1 cycle element cost change")
	}
	d := trace.Diff(base.Events(), mod.Events())
	if d == nil {
		t.Fatal("digests differ but event streams compare equal")
	}
	if d.A == nil || !strings.Contains(d.A.Name, "IPLookup") {
		t.Fatalf("first divergence should land on the changed element, got: %v", d)
	}
	t.Logf("first divergence: %v", d)
}
