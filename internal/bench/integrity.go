package bench

import (
	"fmt"
	"io"
	"nba/internal/core"

	"nba/internal/fault"
	"nba/internal/integrity"
	"nba/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "integrity",
		Title: "Silent-corruption sentinel: sampling rate vs detection latency and overhead (sec 3.4 robustness)",
		Paper: "sampled re-execution trades verification cost for detection latency; even a few percent sampling catches a corrupting device within milliseconds while full sampling bounds the quarantine leak to zero",
		Run:   runIntegrity,
	})
}

// integritySampleRates is the sweep axis: disarmed sampling (the sentinel
// observes nothing and the run pays only the arming overhead), sparse
// sampling up to full re-execution of every offloaded aggregate.
var integritySampleRates = []float64{0, 0.05, 0.25, 0.5, 1}

// IntegrityScenario is the canonical silent-corruption run shared by the
// bench experiment and its regression test: 64 B IPsec at 80% fixed offload
// while device 0 flips bits in every aggregate over a scripted window.
// corruptAt/corruptUntil locate the window on the virtual clock.
func IntegrityScenario(o Options, rate float64) (spec RunSpec, corruptAt, corruptUntil simtime.Time) {
	warm, dur := o.durations(2*simtime.Millisecond, 40*simtime.Millisecond)
	span := warm + dur
	corruptAt, corruptUntil = span/4, span/2
	spec = RunSpec{
		App:  "ipsec",
		LB:   "fixed=0.8",
		Size: 64,
		Config: core.Config{
			OfferedBpsPerPort: offeredPerPort,
			Warmup:            warm,
			Duration:          dur,
			Seed:              o.Seed,
			FaultPlan:         fault.Corruption(corruptAt, corruptUntil, 0, 1, 0x5a),
			Integrity:         &integrity.Config{SampleRate: rate},
		},
	}
	return spec, corruptAt, corruptUntil
}

// runIntegrity sweeps the sentinel sampling rate. For each rate it runs a
// corruption-free twin (throughput overhead of the sentinel itself, against
// the rate-0 baseline) and the corrupted scenario (detection latency from
// the window opening to the first mismatch, quarantine volume, escalation).
func runIntegrity(o Options, w io.Writer) error {
	// Slots 2i are clean twins, 2i+1 the corrupted runs, all independent.
	jobs := make([]RunSpec, 0, 2*len(integritySampleRates))
	var corruptAt, corruptUntil simtime.Time
	for _, rate := range integritySampleRates {
		spec, at, until := IntegrityScenario(o, rate)
		corruptAt, corruptUntil = at, until
		clean := spec
		clean.FaultPlan = nil
		jobs = append(jobs, clean, spec)
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "IPsec 64B fixed=0.8, device 0 corrupts every aggregate (pattern 0x5a) from %v to %v\n", corruptAt, corruptUntil)
	fmt.Fprintf(w, "clean twin: same run without the corruption window; overhead is vs the rate-0 clean run\n\n")
	fmt.Fprintf(w, "%-8s %-12s %-10s %-12s %-12s %-12s %-10s %-8s\n",
		"rate", "clean Gbps", "overhead", "corrupt Gbps", "detect lat", "quarantined", "detected", "checks")

	baseline := reps[0].TxGbps // rate-0 clean run
	for i, rate := range integritySampleRates {
		clean, corrupted := reps[2*i], reps[2*i+1]
		overhead := "-"
		if baseline > 0 {
			overhead = fmt.Sprintf("%.2f%%", 100*(baseline-clean.TxGbps)/baseline)
		}
		latency := "-"
		if corrupted.CorruptionDetected > 0 {
			latency = fmt.Sprint(corrupted.FirstMismatchAt - corruptAt)
		}
		fmt.Fprintf(w, "%-8g %-12s %-10s %-12s %-12s %-12d %-10d %-8d\n",
			rate, gbpsCell(clean.TxGbps), overhead, gbpsCell(corrupted.TxGbps),
			latency, corrupted.QuarantinedPackets, corrupted.CorruptionDetected,
			corrupted.IntegrityChecks)
	}

	full := reps[2*len(integritySampleRates)-1]
	fmt.Fprintf(w, "\nfull sampling: %d checks, %d mismatches, %d packets quarantined (zero corrupt frames transmitted)\n",
		full.IntegrityChecks, full.CorruptionDetected, full.QuarantinedPackets)
	for dev, score := range full.DeviceCorruptionScores {
		if score > 0 {
			fmt.Fprintf(w, "device %d final corruption score: %.3f\n", dev, score)
		}
	}
	return nil
}
