package chaos

import (
	"fmt"
	"path/filepath"
	"strings"

	"nba/internal/fault"
	"nba/internal/par"
	"nba/internal/reconfig"
)

// reconfigEvents counts a possibly-nil reconfig plan's events.
func reconfigEvents(p *reconfig.Plan) int {
	if p == nil {
		return 0
	}
	return len(p.Events)
}

// SweepOptions configures a chaos sweep.
type SweepOptions struct {
	// Apps to sweep; nil selects the default Apps list.
	Apps []string
	// Seeds is how many seeds to sweep per app (cases = Seeds × len(Apps)).
	Seeds int
	// TenantCount >= 2 switches to co-residency sweeping: each case
	// co-hosts TenantCount apps (a seed-rotated window over the app list)
	// as equal-share tenants, cases = Seeds, and the determinism
	// cross-check also covers every per-tenant sub-digest.
	TenantCount int
	// Reconfig arms control-plane churn: every case additionally carries a
	// random reconfiguration plan (tenant admit/evict, share retunes,
	// device hot-plug, queue resizes) over its tenant mix plus one latent
	// app drawn from the rotation. Implies co-residency (TenantCount < 2
	// is promoted to 2: admits and evicts need a tenant split to act on).
	Reconfig bool
	// BaseSeed offsets the seed range (seeds are BaseSeed .. BaseSeed+Seeds-1).
	BaseSeed uint64
	// ReproDir, when non-empty, receives a reproducer file per failing case.
	ReproDir string
	// MaxShrinkRuns bounds the shrinking probes per failing case; 0 disables
	// shrinking (the reproducer then carries the unshrunk plan).
	MaxShrinkRuns int
	// Parallelism bounds how many case runs execute concurrently
	// (internal/par). <= 1 runs serially. Every case is shared-nothing, and
	// results are collected slot-indexed, so the sweep's digests are
	// byte-identical at any value.
	Parallelism int
}

// Failure is one failing case with its (possibly shrunk) reproducer.
type Failure struct {
	Case    Case
	Outcome *Outcome
	// ShrunkFrom is the total event count of the original failing plans —
	// fault events plus any reconfig events (unchanged when shrinking was
	// disabled or made no progress).
	ShrunkFrom int
	// ShrinkRuns is how many probe runs the shrinker spent.
	ShrinkRuns int
	// ReproPath is the written reproducer file ("" when ReproDir unset).
	ReproPath string
}

// SweepResult summarises one sweep.
type SweepResult struct {
	// Cases is the number of (app, seed) cases executed.
	Cases int
	// Failures holds every case that violated an invariant, in sweep order.
	Failures []Failure
	// CaseDigests are the per-case "app seed digest" lines in sweep order —
	// the exact input of Digest, exposed so equivalence tests can pinpoint
	// which case diverged.
	CaseDigests []string
	// Digest fingerprints the whole sweep: the hash of every case's trace
	// digest in order. Two sweeps of the same tree must agree on it exactly.
	Digest string
}

// Sweep runs Seeds × Apps chaos cases. Each case runs twice (determinism
// cross-check); failing cases are shrunk to minimal reproducers and, when
// ReproDir is set, written out as replayable plan files. The iteration
// order (apps outer in the given order, seeds inner ascending) is part of
// the sweep's identity and independent of Parallelism: the doubled runs of
// every case are themselves shared-nothing, so the sweep flattens to 2n
// independent jobs (job j is run j%2 of case j/2) collected slot-indexed,
// and digest pairing, shrinking and reproducer writing happen serially
// afterwards in sweep order.
func Sweep(opts SweepOptions) (*SweepResult, error) {
	apps := opts.Apps
	if apps == nil {
		apps = Apps
	}
	cases := make([]Case, 0, len(apps)*opts.Seeds)
	if opts.Reconfig || opts.TenantCount >= 2 {
		// One case per seed, co-hosting a rotating window over the app list
		// so every app appears in every tenant slot across the seed range;
		// churn cases add the next app in the rotation as the admittable
		// latent tenant.
		tc := max(opts.TenantCount, 2)
		for s := 0; s < opts.Seeds; s++ {
			mix := make([]string, tc)
			for i := range mix {
				mix[i] = apps[(s+i)%len(apps)]
			}
			seed := opts.BaseSeed + uint64(s)
			if opts.Reconfig {
				cases = append(cases, RandomReconfigCase(mix, []string{apps[(s+tc)%len(apps)]}, seed))
			} else {
				cases = append(cases, RandomTenantCase(mix, seed))
			}
		}
	} else {
		for _, app := range apps {
			for s := 0; s < opts.Seeds; s++ {
				cases = append(cases, RandomCase(app, opts.BaseSeed+uint64(s)))
			}
		}
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	outs, err := par.MapErr(2*len(cases), workers, func(j int) (*Outcome, error) {
		c := cases[j/2]
		out, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("chaos: case %s/%d: %w", c.Label(), c.Seed, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &SweepResult{Cases: len(cases)}
	for i, c := range cases {
		out, dup := outs[2*i], outs[2*i+1]
		crossCheck(c, out, dup)
		res.CaseDigests = append(res.CaseDigests, digestLine(c, out))
		if !out.Failed() {
			continue
		}
		f := Failure{Case: c, Outcome: out, ShrunkFrom: len(c.Plan.Events) + reconfigEvents(c.Reconfig)}
		if opts.MaxShrinkRuns > 0 {
			f.Case, f.ShrinkRuns = shrinkCase(c, opts.MaxShrinkRuns)
		}
		if opts.ReproDir != "" {
			f.ReproPath = filepath.Join(opts.ReproDir, fmt.Sprintf("repro-%s-%d.json", strings.ReplaceAll(c.Label(), "+", "_"), c.Seed))
			if err := WriteRepro(f.ReproPath, f.Case); err != nil {
				return nil, err
			}
		}
		res.Failures = append(res.Failures, f)
	}
	res.Digest = combinedDigest(res.CaseDigests)
	return res, nil
}

// shrinkCase shrinks a failing case's fault plan and then, with the probe
// budget left over, its reconfig plan; each probe re-runs the case twice.
func shrinkCase(c Case, maxRuns int) (Case, int) {
	fails := func(cand Case) bool {
		o, err := RunTwice(cand)
		return err == nil && o.Failed()
	}
	prof := CaseProfile(c)
	var runs int
	c.Plan, runs = Shrink(c.Plan,
		func(p *fault.Plan) bool { cand := c; cand.Plan = p; return fails(cand) },
		func(p *fault.Plan) bool { return p.Validate(prof.Devices, prof.Ports, prof.Queues) == nil },
		maxRuns)
	if budget := maxRuns - runs; budget > 0 && reconfigEvents(c.Reconfig) > 0 {
		rprof := ReconfigProfile(c.Tenants, c.Latent)
		var rcRuns int
		c.Reconfig, rcRuns = ShrinkReconfig(c.Reconfig,
			func(p *reconfig.Plan) bool { cand := c; cand.Reconfig = p; return fails(cand) },
			func(p *reconfig.Plan) bool {
				return p.Validate(rprof.Initial, rprof.Latent, rprof.Devices, rprof.Ports) == nil
			},
			budget)
		runs += rcRuns
	}
	return c, runs
}
