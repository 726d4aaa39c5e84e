package fault

import (
	"strings"
	"testing"

	"nba/internal/rng"
	"nba/internal/simtime"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind should stringify as unknown")
	}
}

func TestIsRecovery(t *testing.T) {
	want := map[Kind]bool{
		DeviceFail: false, DeviceRecover: true, DeviceSlowdown: false,
		DeviceHang: false, RxQueueDown: false, RxQueueUp: true, RateBurst: false,
		DeviceCorrupt: false, CorruptRecover: true,
	}
	for k, w := range want {
		if k.IsRecovery() != w {
			t.Errorf("%s: IsRecovery = %v, want %v", k, k.IsRecovery(), w)
		}
	}
}

func TestValidate(t *testing.T) {
	ms := simtime.Millisecond
	cases := []struct {
		name string
		ev   Event
		err  string // substring of the expected error, "" for valid
	}{
		{"fail ok", Event{At: ms, Kind: DeviceFail, Device: 1}, ""},
		{"fail bad device", Event{At: ms, Kind: DeviceFail, Device: 2}, "device 2 of 2"},
		{"negative device", Event{At: ms, Kind: DeviceHang, Device: -1}, "device -1"},
		{"negative time", Event{At: -1, Kind: DeviceFail}, "negative time"},
		{"slowdown ok", Event{At: ms, Kind: DeviceSlowdown, Device: 0, KernelFactor: 2}, ""},
		{"slowdown negative", Event{At: ms, Kind: DeviceSlowdown, Device: 0, CopyFactor: -1}, "negative slowdown"},
		{"rxq ok", Event{At: ms, Kind: RxQueueDown, Port: 3, Queue: -1}, ""},
		{"rxq bad port", Event{At: ms, Kind: RxQueueDown, Port: 4}, "port 4 of 4"},
		{"rxq bad queue", Event{At: ms, Kind: RxQueueUp, Port: 0, Queue: 2}, "queue 2 of 2"},
		{"burst ok", Event{At: ms, Kind: RateBurst, RateFactor: 3}, ""},
		{"burst negative", Event{At: ms, Kind: RateBurst, RateFactor: -0.5}, "negative rate"},
		{"corrupt ok", Event{At: ms, Kind: DeviceCorrupt, Device: 1, CorruptProb: 0.5, FlipPattern: 0xa5}, ""},
		{"corrupt full prob ok", Event{At: ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 1, FlipPattern: 1}, ""},
		{"corrupt bad device", Event{At: ms, Kind: DeviceCorrupt, Device: 2, CorruptProb: 0.5, FlipPattern: 1}, "device 2 of 2"},
		{"corrupt zero prob", Event{At: ms, Kind: DeviceCorrupt, Device: 0, FlipPattern: 1}, "outside (0,1]"},
		{"corrupt prob over one", Event{At: ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 1.5, FlipPattern: 1}, "outside (0,1]"},
		{"corrupt zero pattern", Event{At: ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 0.5}, "zero flip pattern"},
		{"corrupt recover bad device", Event{At: ms, Kind: CorruptRecover, Device: -1}, "device -1"},
		{"unknown kind", Event{At: ms, Kind: numKinds}, "unknown kind"},
	}
	for _, c := range cases {
		p := Plan{Events: []Event{c.ev}}
		err := p.Validate(2, 4, 2)
		if c.err == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.err)
		}
	}
}

func TestSortedStable(t *testing.T) {
	ms := simtime.Millisecond
	p := Plan{Events: []Event{
		{At: 3 * ms, Kind: DeviceRecover, Device: 0},
		{At: ms, Kind: RateBurst, RateFactor: 2},
		{At: ms, Kind: DeviceFail, Device: 0}, // same time: must stay after the burst
		{At: 2 * ms, Kind: DeviceHang, Device: 1},
	}}
	got := p.Sorted()
	wantKinds := []Kind{RateBurst, DeviceFail, DeviceHang, DeviceRecover}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Fatalf("sorted[%d].Kind = %s, want %s (order %v)", i, got[i].Kind, k, got)
		}
	}
	// Original plan untouched.
	if p.Events[0].Kind != DeviceRecover {
		t.Fatal("Sorted mutated the plan")
	}
}

func TestHelpers(t *testing.T) {
	ms := simtime.Millisecond
	p := GPUOutage(2*ms, 5*ms, 1)
	if err := p.Validate(2, 1, 1); err != nil {
		t.Fatalf("GPUOutage plan invalid: %v", err)
	}
	if len(p.Events) != 2 || p.Events[0].Kind != DeviceFail || p.Events[1].Kind != DeviceRecover {
		t.Fatalf("unexpected outage plan %v", p.Events)
	}
	if p.Events[0].At != 2*ms || p.Events[1].At != 5*ms {
		t.Fatalf("unexpected outage times %v", p.Events)
	}

	b := Burst(ms, 2*ms, 4)
	if len(b) != 2 || b[0].RateFactor != 4 || b[1].RateFactor != 1 || b[1].At != 3*ms {
		t.Fatalf("unexpected burst events %v", b)
	}

	c := Corruption(ms, 4*ms, 1, 0.25, 0x80)
	if err := c.Validate(2, 1, 1); err != nil {
		t.Fatalf("Corruption plan invalid: %v", err)
	}
	if len(c.Events) != 2 || c.Events[0].Kind != DeviceCorrupt || c.Events[1].Kind != CorruptRecover {
		t.Fatalf("unexpected corruption plan %v", c.Events)
	}
	if c.Events[0].CorruptProb != 0.25 || c.Events[0].FlipPattern != 0x80 || c.Events[1].At != 4*ms {
		t.Fatalf("unexpected corruption parameters %v", c.Events)
	}
}

func TestValidateTimeline(t *testing.T) {
	ms := simtime.Millisecond
	cases := []struct {
		name string
		evs  []Event
		err  string // substring of the expected error, "" for valid
	}{
		{"fail recover ok", []Event{
			{At: ms, Kind: DeviceFail, Device: 0},
			{At: 2 * ms, Kind: DeviceRecover, Device: 0},
		}, ""},
		{"double fail", []Event{
			{At: ms, Kind: DeviceFail, Device: 0},
			{At: 2 * ms, Kind: DeviceFail, Device: 0},
		}, "already failed"},
		{"fail during hang", []Event{
			{At: ms, Kind: DeviceHang, Device: 0},
			{At: 2 * ms, Kind: DeviceFail, Device: 0},
		}, "active Hang window"},
		{"hang during fail", []Event{
			{At: ms, Kind: DeviceFail, Device: 0},
			{At: 2 * ms, Kind: DeviceHang, Device: 0},
		}, "active Fail window"},
		{"double hang", []Event{
			{At: ms, Kind: DeviceHang, Device: 0},
			{At: 2 * ms, Kind: DeviceHang, Device: 0},
		}, "already hung"},
		{"slowdown during outage", []Event{
			{At: ms, Kind: DeviceFail, Device: 0},
			{At: 2 * ms, Kind: DeviceSlowdown, Device: 0, KernelFactor: 2},
		}, "active outage"},
		{"recover nominal", []Event{
			{At: ms, Kind: DeviceRecover, Device: 0},
		}, "no prior failure"},
		{"recover after recover", []Event{
			{At: ms, Kind: DeviceFail, Device: 0},
			{At: 2 * ms, Kind: DeviceRecover, Device: 0},
			{At: 3 * ms, Kind: DeviceRecover, Device: 0},
		}, "no prior failure"},
		{"slowdown noop", []Event{
			{At: ms, Kind: DeviceSlowdown, Device: 0},
		}, "both factors zero"},
		{"slowdown recover ok", []Event{
			{At: ms, Kind: DeviceSlowdown, Device: 0, CopyFactor: 3},
			{At: 2 * ms, Kind: DeviceRecover, Device: 0},
		}, ""},
		{"independent devices ok", []Event{
			{At: ms, Kind: DeviceFail, Device: 0},
			{At: 2 * ms, Kind: DeviceHang, Device: 1},
			{At: 3 * ms, Kind: DeviceRecover, Device: 1},
			{At: 4 * ms, Kind: DeviceRecover, Device: 0},
		}, ""},
		{"double queue down", []Event{
			{At: ms, Kind: RxQueueDown, Port: 0, Queue: 1},
			{At: 2 * ms, Kind: RxQueueDown, Port: 0, Queue: 1},
		}, "already down"},
		{"queue up not down", []Event{
			{At: ms, Kind: RxQueueUp, Port: 0, Queue: 0},
		}, "not down"},
		{"wildcard down overlaps single", []Event{
			{At: ms, Kind: RxQueueDown, Port: 0, Queue: 0},
			{At: 2 * ms, Kind: RxQueueDown, Port: 0, Queue: -1},
		}, "already down"},
		{"wildcard flap ok", []Event{
			{At: ms, Kind: RxQueueDown, Port: 0, Queue: -1},
			{At: 2 * ms, Kind: RxQueueUp, Port: 0, Queue: -1},
		}, ""},
		{"same queue index other port ok", []Event{
			{At: ms, Kind: RxQueueDown, Port: 0, Queue: 1},
			{At: 2 * ms, Kind: RxQueueDown, Port: 1, Queue: 1},
		}, ""},
		{"out of order authoring applies in time order", []Event{
			{At: 2 * ms, Kind: DeviceRecover, Device: 0},
			{At: ms, Kind: DeviceFail, Device: 0},
		}, ""},
		{"corrupt window ok", []Event{
			{At: ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 0.5, FlipPattern: 1},
			{At: 2 * ms, Kind: CorruptRecover, Device: 0},
		}, ""},
		{"double corrupt", []Event{
			{At: ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 0.5, FlipPattern: 1},
			{At: 2 * ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 0.5, FlipPattern: 1},
		}, "already corrupting"},
		{"corrupt during fail", []Event{
			{At: ms, Kind: DeviceFail, Device: 0},
			{At: 2 * ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 0.5, FlipPattern: 1},
		}, "active outage"},
		{"fail during corrupt", []Event{
			{At: ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 0.5, FlipPattern: 1},
			{At: 2 * ms, Kind: DeviceFail, Device: 0},
		}, "active Corrupt window"},
		{"hang during corrupt", []Event{
			{At: ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 0.5, FlipPattern: 1},
			{At: 2 * ms, Kind: DeviceHang, Device: 0},
		}, "active Corrupt window"},
		{"corrupt recover not corrupting", []Event{
			{At: ms, Kind: CorruptRecover, Device: 0},
		}, "not corrupting"},
		{"slowdown during corrupt ok", []Event{
			{At: ms, Kind: DeviceCorrupt, Device: 0, CorruptProb: 0.5, FlipPattern: 1},
			{At: 2 * ms, Kind: DeviceSlowdown, Device: 0, KernelFactor: 2},
			{At: 3 * ms, Kind: DeviceRecover, Device: 0},
			{At: 4 * ms, Kind: CorruptRecover, Device: 0},
		}, ""},
		{"corrupt on second device during first's outage ok", []Event{
			{At: ms, Kind: DeviceFail, Device: 0},
			{At: 2 * ms, Kind: DeviceCorrupt, Device: 1, CorruptProb: 0.5, FlipPattern: 1},
		}, ""},
	}
	for _, c := range cases {
		p := Plan{Events: c.evs}
		err := p.Validate(2, 4, 2)
		if c.err == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.err)
		}
	}
}

// TestKindStringRoundTrip pins the reproducer-file encoding of every kind.
func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		text, _ := k.MarshalText()
		var got Kind
		if err := got.UnmarshalText(text); err != nil || got != k || string(text) != k.String() {
			t.Errorf("round-trip %s via %q: got %v, %v", k, text, got, err)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("device.explode")); err == nil {
		t.Error("unknown kind string accepted")
	}
}

func TestRandomPlanAlwaysValid(t *testing.T) {
	prof := Profile{
		Horizon: 3 * simtime.Millisecond,
		Devices: 2, Ports: 2, Queues: 2,
	}
	r := rng.New(42)
	for i := 0; i < 500; i++ {
		p := RandomPlan(r, prof) // panics internally if invalid
		if len(p.Events) == 0 {
			continue // an episode can run out of room; rare but legal
		}
		for _, ev := range p.Events {
			if ev.At < 0 || ev.At > prof.Horizon {
				t.Fatalf("plan %d: event outside horizon: %+v", i, ev)
			}
			if ev.At%(10*simtime.Microsecond) != 0 {
				t.Fatalf("plan %d: event time %v off the grid", i, ev.At)
			}
		}
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	prof := Profile{Horizon: 2 * simtime.Millisecond, Devices: 1, Ports: 1, Queues: 2}
	a := RandomPlan(rng.New(7), prof)
	b := RandomPlan(rng.New(7), prof)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed, different plans: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed, event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if c := RandomPlan(rng.New(8), prof); len(c.Events) == len(a.Events) {
		same := true
		for i := range c.Events {
			if c.Events[i] != a.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical plans")
		}
	}
}

// TestRandomPlanGeneratesCorruption: the generator's episode mix must
// include silent-corruption windows, and every generated corruption event
// must carry in-range parameters (the validator would panic inside
// RandomPlan otherwise, but pin the bounds explicitly).
func TestRandomPlanGeneratesCorruption(t *testing.T) {
	prof := Profile{Horizon: 3 * simtime.Millisecond, Devices: 2, Ports: 2, Queues: 2}
	r := rng.New(42)
	corruptEvents := 0
	for i := 0; i < 500; i++ {
		for _, ev := range RandomPlan(r, prof).Events {
			if ev.Kind != DeviceCorrupt {
				continue
			}
			corruptEvents++
			if ev.CorruptProb <= 0 || ev.CorruptProb > 1 {
				t.Fatalf("plan %d: corruption probability %v outside (0,1]", i, ev.CorruptProb)
			}
			if ev.FlipPattern == 0 {
				t.Fatalf("plan %d: zero flip pattern", i)
			}
		}
	}
	if corruptEvents == 0 {
		t.Fatal("500 random plans generated no corruption episode")
	}
}
