package lb

import (
	"math"
	"testing"
)

// drive runs n observe+update steps against a synthetic throughput
// landscape f(w).
func drive(c *Controller, st *State, f func(float64) float64, n int) {
	for i := 0; i < n; i++ {
		c.Observe(f(st.W))
		c.Update()
	}
}

func TestConvergesFromAnyStart(t *testing.T) {
	// From any starting fraction — both boundaries included — the
	// hill-climb must find the peak of a concave landscape within a bounded
	// number of updates.
	// Steep enough that a step past the peak drops throughput by more than
	// Tolerance, so the climb cannot wander far beyond it.
	const peak = 0.7
	f := func(w float64) float64 { return 40 - 60*(w-peak)*(w-peak) }
	for start := 0.0; start <= 1.0; start += 0.1 {
		st := &State{}
		c := NewController(st, Wiring{})
		st.W = start
		drive(c, st, f, 3000)
		if math.Abs(st.W-peak) > 0.15 {
			t.Errorf("start %.1f: converged W = %v, want ~%v", start, st.W, peak)
		}
	}
}

func TestBoundaryDwellGrowsMonotonically(t *testing.T) {
	// On a landscape whose optimum is the w=1 boundary, every rejected
	// perturbation must lengthen the dwell at the boundary (the paper's
	// gradually-increasing waiting interval), monotonically up to the cap.
	st := &State{}
	c := NewController(st, Wiring{})
	st.W = 1
	f := func(w float64) float64 { return 10 + 5*w }
	var departures []int // update indices where a perturbation left w=1
	prev := st.W
	for i := 0; i < 4000; i++ {
		c.Observe(f(st.W))
		c.Update()
		if prev == 1 && st.W < 1 {
			departures = append(departures, i)
		}
		prev = st.W
	}
	if len(departures) < 4 {
		t.Fatalf("only %d perturbations off the boundary in 4000 updates", len(departures))
	}
	gaps := make([]int, len(departures)-1)
	for i := 1; i < len(departures); i++ {
		gaps[i-1] = departures[i] - departures[i-1]
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1] {
			t.Fatalf("dwell shrank: gaps %v", gaps)
		}
	}
	if gaps[len(gaps)-1] <= gaps[0] {
		t.Errorf("dwell never grew: gaps %v", gaps)
	}
}

func TestInfeasibleLatencyBoundParksAtZero(t *testing.T) {
	// When even w=0 cannot satisfy the latency bound, the bounded-latency
	// controller must park at w=0 (shed load) rather than oscillate.
	st := &State{}
	c := NewController(st, Wiring{})
	c.Bound = 100_000_000 // 100 us in ps
	for i := 0; i < 200; i++ {
		c.Observe(10)
		c.UpdateWithLatency(2 * c.Bound) // p99 always over bound
	}
	if st.W != 0 {
		t.Fatalf("W = %v after 200 infeasible steps, want parked at 0", st.W)
	}
	// And it stays parked while the bound remains infeasible.
	for i := 0; i < 50; i++ {
		c.Observe(10)
		c.UpdateWithLatency(2 * c.Bound)
		if st.W != 0 {
			t.Fatalf("W = %v left the park while still infeasible", st.W)
		}
	}
}

func TestReclimbsAfterFailuresStop(t *testing.T) {
	// Fault path: completion failures collapse W toward 0; once they stop
	// (device recovered), the perturbation must escape w=0 and the climb
	// must re-discover the interior optimum.
	const peak = 0.6
	f := func(w float64) float64 { return 40 - 60*(w-peak)*(w-peak) }
	st := &State{}
	c := NewController(st, Wiring{})
	drive(c, st, f, 2500)
	if math.Abs(st.W-peak) > 0.15 {
		t.Fatalf("pre-fault: W = %v, want ~%v", st.W, peak)
	}

	// Outage: every offloaded task fails. After a few collapse steps W must
	// pin at (or next to) zero and stay there for the whole outage.
	for i := 0; i < 300; i++ {
		c.NoteTaskFailures(3)
		c.Observe(f(0)) // CPU-only throughput, whatever W says
		c.Update()
		if i >= 5 && st.W > 0.1 {
			t.Fatalf("outage step %d: W = %v, want <= 0.1", i, st.W)
		}
	}

	// Recovery: failures stop, the landscape is back. W must re-climb.
	drive(c, st, f, 2500)
	if math.Abs(st.W-peak) > 0.15 {
		t.Errorf("post-recovery: W = %v, want re-climb to ~%v", st.W, peak)
	}
}
