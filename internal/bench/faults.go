package bench

import (
	"fmt"
	"io"
	"nba/internal/core"

	"nba/internal/fault"
	"nba/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "faults",
		Title: "Graceful degradation under a GPU outage (sec 3.4 robustness)",
		Paper: "ALB needs no device-specific knowledge: when the device dies, offload failures collapse w to 0 and the CPU carries the load; after recovery, perturbation re-discovers the optimum",
		Run:   runFaults,
	})
}

// FaultsScenario is the canonical fault-injection run shared by the bench
// experiment, its regression test and the nbatrace self-check: 64 B IPsec
// under the adaptive balancer while device 0 suffers a scripted outage.
// The returned spec carries the plan; failAt/recoverAt locate the outage on
// the virtual clock for assertions and output.
func FaultsScenario(o Options) (spec RunSpec, failAt, recoverAt simtime.Time) {
	warm := 5 * simtime.Millisecond
	dur := 250 * simtime.Millisecond
	failAt = 40 * simtime.Millisecond
	recoverAt = 70 * simtime.Millisecond
	if o.Quick {
		dur = 110 * simtime.Millisecond
		failAt = 12 * simtime.Millisecond
		recoverAt = 26 * simtime.Millisecond
	}
	spec = RunSpec{
		App:  "ipsec",
		LB:   "adaptive",
		Size: 64,
		Config: core.Config{
			OfferedBpsPerPort: offeredPerPort,
			Warmup:            warm,
			Duration:          dur,
			Seed:              o.Seed,
			// A 2 ms control period fills the controller's 16-sample smoothing
			// window every step; with shorter periods the boundary perturbations
			// that escape the post-outage collapse are judged on too few
			// batch-quantised samples.
			ALBObserve:    250 * simtime.Microsecond,
			ALBUpdate:     2 * simtime.Millisecond,
			LatencySample: 64,
			FaultPlan:     fault.GPUOutage(failAt, recoverAt, 0),
		},
	}
	return spec, failAt, recoverAt
}

// runFaults executes the outage scenario next to a fault-free twin and
// prints the controller's W trajectory around the outage: collapse to 0
// while offload tasks fail, CPU fallback carrying the load, and the
// re-climb toward the twin's optimum after recovery.
func runFaults(o Options, w io.Writer) error {
	spec, failAt, recoverAt := FaultsScenario(o)
	faulted, err := Execute(spec)
	if err != nil {
		return err
	}
	clean := spec
	clean.FaultPlan = nil
	baseline, err := Execute(clean)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "IPsec 64B adaptive, device 0 fails at %v, recovers at %v\n\n", failAt, recoverAt)
	fmt.Fprintf(w, "%-10s %-8s %-8s\n", "time", "W", "Mpps")
	n := len(faulted.LBTrace)
	step := n / 24
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i += step {
		pt := faulted.LBTrace[i]
		mark := ""
		if pt.At >= failAt && pt.At < recoverAt {
			mark = "  <- outage"
		}
		fmt.Fprintf(w, "%-10v %-8.3f %-8.2f%s\n", pt.At, pt.W, pt.Throughput/1e6, mark)
	}
	fmt.Fprintf(w, "\nfailed tasks: %d   timed out: %d   packets rescued on CPU: %d\n",
		faulted.FailedTasks, faulted.TimedOutTasks, faulted.FallbackPackets)
	fmt.Fprintf(w, "final W: %.3f faulted vs %.3f fault-free (re-climb target)\n",
		faulted.FinalW, baseline.FinalW)
	fmt.Fprintf(w, "throughput: %s Gbps faulted vs %s fault-free (outage window included)\n",
		gbpsCell(faulted.TxGbps), gbpsCell(baseline.TxGbps))
	return nil
}
