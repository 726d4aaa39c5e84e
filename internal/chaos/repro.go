package chaos

import (
	"encoding/json"
	"fmt"
	"os"

	"nba/internal/fault"
	"nba/internal/reconfig"
	"nba/internal/simtime"
)

// Reproducer files are plain JSON so a failing case can be attached to a
// bug report and replayed with `nbachaos replay <file>`. The event types
// own their encoding: times are picoseconds of virtual time (simtime.Time's
// unit) and kinds use their String form.

type reproFile struct {
	App string `json:"app"`
	// Tenants, when present, replays the case as a co-resident tenant mix.
	Tenants []string `json:"tenants,omitempty"`
	// Seed drives the run's own randomness (LB coin flips, generator).
	Seed uint64 `json:"seed"`
	// TaskTimeoutPs overrides the rescue timeout; omitted = framework
	// default, negative = disabled.
	TaskTimeoutPs int64         `json:"task_timeout_ps,omitempty"`
	Events        []fault.Event `json:"events"`
	// Latent / ReconfigEvents replay control-plane churn cases: the latent
	// app pool and the reconfiguration timeline (tenants by their in-run
	// names).
	Latent         []string         `json:"latent,omitempty"`
	ReconfigEvents []reconfig.Event `json:"reconfig_events,omitempty"`
	// DisarmSampling replays the case with the integrity sentinel armed but
	// not sampling (the seeded corruption-leak configuration).
	DisarmSampling bool `json:"disarm_sampling,omitempty"`
}

// WriteRepro writes the case as a replayable reproducer file.
func WriteRepro(path string, c Case) error {
	rf := reproFile{
		App: c.App, Tenants: c.Tenants, Seed: c.Seed,
		TaskTimeoutPs: int64(c.TaskTimeout), Latent: c.Latent,
		DisarmSampling: c.DisarmSampling,
	}
	// An empty fault plan is always written as "events": null (and read
	// back as a nil slice), whether or not its slice was allocated.
	if c.Plan != nil && len(c.Plan.Events) > 0 {
		rf.Events = c.Plan.Events
	}
	if c.Reconfig != nil {
		rf.ReconfigEvents = c.Reconfig.Events
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRepro loads a reproducer file back into a runnable case.
func ReadRepro(path string) (Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Case{}, err
	}
	var rf reproFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return Case{}, fmt.Errorf("chaos: %s: %w", path, err)
	}
	// A missing or null "kind" leaves an event at kind 0; reject it like an
	// unknown kind name instead of replaying a plan the file never named.
	type kinds []struct{ Kind *string }
	var named struct {
		Events         kinds `json:"events"`
		ReconfigEvents kinds `json:"reconfig_events"`
	}
	_ = json.Unmarshal(data, &named) // cannot fail where the decode above did not
	for _, evs := range []kinds{named.Events, named.ReconfigEvents} {
		for i, ev := range evs {
			if ev.Kind == nil {
				return Case{}, fmt.Errorf("chaos: %s: event %d has no kind", path, i)
			}
		}
	}
	c := Case{
		App:            rf.App,
		Tenants:        rf.Tenants,
		Seed:           rf.Seed,
		TaskTimeout:    simtime.Time(rf.TaskTimeoutPs),
		Plan:           &fault.Plan{},
		Latent:         rf.Latent,
		DisarmSampling: rf.DisarmSampling,
	}
	if len(rf.Events) > 0 {
		c.Plan.Events = rf.Events
	}
	if len(rf.ReconfigEvents) > 0 {
		c.Reconfig = &reconfig.Plan{Events: rf.ReconfigEvents}
	}
	return c, nil
}
