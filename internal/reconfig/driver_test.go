package reconfig

import (
	"fmt"
	"reflect"
	"testing"

	"nba/internal/invariant"
	"nba/internal/simtime"
	"nba/internal/trace"
)

const us = simtime.Microsecond

// Drain behaviours of fakeTarget besides a fixed delay after begin.
const (
	untilRescued simtime.Time = -1
	never        simtime.Time = -2
)

// fakeTarget drains each event a fixed time after its epoch began (at once
// for 0), untilRescued or never; it logs every callback with its virtual
// time.
type fakeTarget struct {
	eng        *simtime.Engine
	drainAfter map[string]simtime.Time // by Event.Tenant
	begun      simtime.Time
	rescued    bool
	log        []string
}

func (f *fakeTarget) note(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf("%v ", f.eng.Now())+fmt.Sprintf(format, args...))
}

func (f *fakeTarget) Quiesce(ev Event) Record {
	f.begun, f.rescued = f.eng.Now(), false
	f.note("quiesce %s", ev.Tenant)
	return Record{Tenant: trace.NoTenant}
}

func (f *fakeTarget) Drained(ev Event) bool {
	d := f.drainAfter[ev.Tenant]
	switch d {
	case never:
		return false
	case untilRescued:
		return f.rescued
	}
	return f.eng.Now() >= f.begun+d
}

func (f *fakeTarget) Rescue(ev Event) int {
	f.rescued = true
	f.note("rescue %s", ev.Tenant)
	return 3
}

func (f *fakeTarget) Commit(ev Event) Record {
	f.note("commit %s", ev.Tenant)
	return Record{Tenant: trace.NoTenant}
}

func (f *fakeTarget) Sealed(ev Event, epoch int, clean bool) {
	f.note("sealed %s epoch %d clean %v", ev.Tenant, epoch, clean)
}

// runDriver drives plan against a fake target with a 100 µs drain grace and
// returns the target's log, the drain events and the checker.
func runDriver(t *testing.T, plan *Plan, drainAfter map[string]simtime.Time) ([]string, []trace.Event, *invariant.Checker) {
	t.Helper()
	eng := simtime.NewEngine()
	f := &fakeTarget{eng: eng, drainAfter: drainAfter}
	tr := trace.New(trace.Options{Mask: 1 << trace.KindReconfigDrain})
	ck := invariant.New()
	d := NewDriver(plan, simtime.Second, eng, f, 100*us, tr, ck)
	d.Start()
	eng.Run()
	d.CheckEnd(eng.Now())
	return f.log, tr.Events(), ck
}

func TestDriverSerializesEpochsAndBeginsDeferredEventAtCommit(t *testing.T) {
	log, _, ck := runDriver(t, &Plan{Events: []Event{
		{At: 1000 * us, Kind: TenantEvict, Tenant: "a"},
		{At: 1020 * us, Kind: ShareRetune, Tenant: "b", Share: 2}, // due mid-epoch
		{At: 2000 * us, Kind: ShareRetune, Tenant: "c", Share: 3},
	}}, map[string]simtime.Time{"a": 50 * us})
	want := []string{
		"1ms quiesce a",
		"1.05ms commit a",
		"1.05ms sealed a epoch 1 clean true",
		"1.05ms quiesce b", // deferred: begins at once when a commits
		"1.05ms commit b",
		"2ms quiesce c",
		"2ms commit c",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("epoch log:\n got  %q\n want %q", log, want)
	}
	if v := ck.Violations(); len(v) != 0 {
		t.Errorf("violations: %+v", v)
	}
}

func TestDriverForceRescuesAtGrace(t *testing.T) {
	log, drains, ck := runDriver(t, &Plan{Events: []Event{
		{At: 1000 * us, Kind: TenantEvict, Tenant: "a"},
	}}, map[string]simtime.Time{"a": untilRescued})
	want := []string{
		"1ms quiesce a",
		"1.1ms rescue a",  // 1x grace
		"1.11ms commit a", // the next drain poll sees the rescue through
		"1.11ms sealed a epoch 1 clean true",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("epoch log:\n got  %q\n want %q", log, want)
	}
	if len(drains) != 1 || drains[0].C != 3 || drains[0].D != 1 {
		t.Errorf("drain events %+v, want one with 3 rescued and forced=1", drains)
	}
	if v := ck.Violations(); len(v) != 0 {
		t.Errorf("violations: %+v", v)
	}
}

func TestDriverOrphansAtTwiceGrace(t *testing.T) {
	log, drains, ck := runDriver(t, &Plan{Events: []Event{
		{At: 1000 * us, Kind: TenantEvict, Tenant: "a"},
	}}, map[string]simtime.Time{"a": never})
	want := []string{
		"1ms quiesce a",
		"1.1ms rescue a",
		"1.2ms commit a", // 2x grace: committed with the work stranded
		"1.2ms sealed a epoch 1 clean false",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("epoch log:\n got  %q\n want %q", log, want)
	}
	if len(drains) != 1 || drains[0].D != 1 {
		t.Errorf("drain events %+v, want one forced", drains)
	}
	v := ck.Violations()
	if len(v) != 1 || v[0].Check != invariant.CheckReconfigOrphan || v[0].At != 1200*us {
		t.Errorf("violations %+v, want one %s at 1.2ms", v, invariant.CheckReconfigOrphan)
	}
}
