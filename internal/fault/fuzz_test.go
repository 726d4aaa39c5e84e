package fault

import (
	"encoding/json"
	"reflect"
	"testing"

	"nba/internal/simtime"
)

// FuzzPlanJSON is the plan-serialisation fixed-point fuzzer: any JSON that
// unmarshals into a Plan must survive marshal -> unmarshal unchanged, and
// Validate must agree on both copies (a reproducer attached to a bug report
// must mean the same run after any number of round trips).
func FuzzPlanJSON(f *testing.F) {
	seed := func(p *Plan) {
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	ms := simtime.Millisecond
	seed(GPUOutage(ms, 2*ms, 0))
	seed(Corruption(ms, 2*ms, 1, 0.5, 0xa5))
	seed(&Plan{Events: []Event{
		{At: ms, Kind: DeviceSlowdown, Device: 0, KernelFactor: 4, CopyFactor: 2},
		{At: 2 * ms, Kind: RateBurst, RateFactor: 3},
		{At: 3 * ms, Kind: RxQueueDown, Port: 1, Queue: -1},
	}})
	f.Add([]byte(`{"Events":[{"kind":"device.corrupt","corrupt_prob":1e308,"flip_pattern":255}]}`))
	f.Add([]byte(`{not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Plan
		if err := json.Unmarshal(data, &p); err != nil {
			return // malformed input: must only be rejected, never panic
		}
		out, err := json.Marshal(&p)
		if err != nil {
			t.Fatalf("marshal of unmarshalled plan failed: %v", err)
		}
		var p2 Plan
		if err := json.Unmarshal(out, &p2); err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip not a fixed point:\n%+v\nvs\n%+v", p, p2)
		}
		e1 := p.Validate(2, 2, 2)
		e2 := p2.Validate(2, 2, 2)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("Validate disagrees across round trip: %v vs %v", e1, e2)
		}
	})
}
