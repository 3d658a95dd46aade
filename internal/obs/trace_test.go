package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestWriteTraceGolden pins the trace-event JSON bytes under a fake
// clock. Mem-stats accounting is off so no nondeterministic allocation
// args leak into the golden output; the clock advances 1ms per read, so
// the read sequence (Root, Child, End, Child, End, End) fixes every
// timestamp.
func TestWriteTraceGolden(t *testing.T) {
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	fakeClock(t, start, time.Millisecond)

	root := Root("run") // read 0: t0
	root.memStats = false
	load := root.Child("load") // read 1: +1ms
	load.SetAttr("eras", 3)
	load.End()                    // read 2: +2ms
	comp := root.Child("compute") // read 3: +3ms
	comp.End()                    // read 4: +4ms
	root.End()                    // read 5: +5ms

	var buf strings.Builder
	if err := WriteTrace(&buf, root.Report()); err != nil {
		t.Fatal(err)
	}
	want := `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "dur": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "name": "run"
   }
  },
  {
   "name": "run",
   "ph": "X",
   "ts": 0,
   "dur": 5000,
   "pid": 1,
   "tid": 1
  },
  {
   "name": "load",
   "ph": "X",
   "ts": 1000,
   "dur": 1000,
   "pid": 1,
   "tid": 1,
   "args": {
    "eras": 3
   }
  },
  {
   "name": "compute",
   "ph": "X",
   "ts": 3000,
   "dur": 1000,
   "pid": 1,
   "tid": 1
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != want {
		t.Errorf("trace mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTraceRoundTrip asserts the acceptance contract: the emitted file
// parses back through encoding/json and every span event carries
// ph/ts/dur/name.
func TestTraceRoundTrip(t *testing.T) {
	root := Root("run")
	c := root.Child("stage")
	c.SetAttr("rows", int64(7))
	c.End()
	root.End()

	var buf strings.Builder
	if err := WriteTrace(&buf, root.Report()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil {
		t.Fatalf("trace does not round-trip: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
	var xEvents int
	for _, ev := range parsed.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Errorf("event %v missing %q", ev, k)
			}
		}
		if ev["ph"] == "X" {
			xEvents++
		}
	}
	if xEvents != 2 {
		t.Errorf("complete events = %d, want 2 (run + stage)", xEvents)
	}
}

// TestTraceLaneAssignment checks the interval partitioning that spreads
// overlapping children (parallel eras) across tid lanes: sequential
// spans share the parent's lane, an overlapping sibling opens a new
// lane, and a later span reuses a freed lane.
func TestTraceLaneAssignment(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	ms := func(d int) time.Time { return base.Add(time.Duration(d) * time.Millisecond) }
	root := &SpanReport{
		Name: "run", Start: base, DurationMS: 10,
		Children: []*SpanReport{
			{Name: "a", Start: ms(1), DurationMS: 4,
				Children: []*SpanReport{{Name: "a1", Start: ms(2), DurationMS: 1}}},
			{Name: "b", Start: ms(2), DurationMS: 2}, // overlaps a → new lane
			{Name: "c", Start: ms(6), DurationMS: 1}, // a ended → reuses lane 1
		},
	}
	evs := TraceEvents(root)
	lanes := map[string]int{}
	for _, ev := range evs {
		if ev.Ph == "X" {
			lanes[ev.Name] = ev.TID
		}
	}
	want := map[string]int{"run": 1, "a": 1, "a1": 1, "b": 2, "c": 1}
	for name, lane := range want {
		if lanes[name] != lane {
			t.Errorf("%s on lane %d, want %d (all: %v)", name, lanes[name], lane, lanes)
		}
	}
}

func TestTraceNil(t *testing.T) {
	if evs := TraceEvents(nil); evs != nil {
		t.Errorf("TraceEvents(nil) = %v", evs)
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil {
		t.Fatalf("nil trace does not parse: %v", err)
	}
	if parsed.TraceEvents == nil || len(parsed.TraceEvents) != 0 {
		t.Errorf("nil root should write an empty (non-null) event array: %q", buf.String())
	}
}
