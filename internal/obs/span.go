package obs

import (
	"runtime"
	"sync"
	"time"
)

// clockNow is the package's single wall-clock seam: every timing-
// dependent obs feature (spans, progress events, the debug server's
// uptime) reads the clock through it, so tests swap in a fake clock and
// pin otherwise time-dependent output (trace export, progress lines)
// byte for byte; a read that bypasses it fails those golden tests.
var clockNow = time.Now

// Attr is one span attribute. Values should be JSON-serializable
// (numbers, strings, bools, or small structs of those).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed stage of a pipeline run. Spans form a tree: Root
// creates the top, Child nests. A span measures wall time between its
// creation and End, and the process allocation delta over the same
// window (TotalAlloc / Mallocs from runtime.ReadMemStats).
//
// All methods no-op on a nil receiver, so disabled telemetry costs one
// nil check per call and never allocates. Argument expressions are
// still evaluated, so keep hot-path attribute values cheap (avoid
// fmt.Sprintf in call arguments; set a literal name and numeric attrs
// instead).
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	ended    bool
	memStats bool

	startAlloc   uint64
	startMallocs uint64
	allocBytes   uint64
	mallocs      uint64

	attrs    []Attr
	children []*Span
}

// Root starts a new top-level span.
func Root(name string) *Span {
	s := &Span{name: name, start: clockNow(), memStats: true}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.startAlloc, s.startMallocs = ms.TotalAlloc, ms.Mallocs
	return s
}

// Child starts a nested span. Returns nil (a no-op span) when the
// receiver is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: clockNow(), memStats: s.memStats}
	if c.memStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.startAlloc, c.startMallocs = ms.TotalAlloc, ms.Mallocs
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr attaches (or overwrites) an attribute. No-op on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span, recording wall time and allocation deltas. Only
// the first End takes effect; later calls (and nil receivers) no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.end = clockNow()
	if s.memStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// Guard against counter wrap (TotalAlloc is monotonic, but be
		// defensive about snapshot ordering under concurrency).
		if ms.TotalAlloc >= s.startAlloc {
			s.allocBytes = ms.TotalAlloc - s.startAlloc
		}
		if ms.Mallocs >= s.startMallocs {
			s.mallocs = ms.Mallocs - s.startMallocs
		}
	}
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the measured wall time. An un-ended span reports
// the time elapsed so far; nil reports zero.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return clockNow().Sub(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanReport is the serializable form of one span subtree.
type SpanReport struct {
	Name       string        `json:"name"`
	Start      time.Time     `json:"start"`
	DurationMS float64       `json:"duration_ms"`
	AllocBytes uint64        `json:"alloc_bytes,omitempty"`
	Mallocs    uint64        `json:"mallocs,omitempty"`
	Attrs      []Attr        `json:"attrs,omitempty"`
	Children   []*SpanReport `json:"children,omitempty"`
}

// Report snapshots the span subtree into its serializable form,
// ending any still-open spans' timing view without closing them (an
// un-ended span reports elapsed-so-far and zero alloc delta). Nil
// returns nil.
func (s *Span) Report() *SpanReport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	r := &SpanReport{
		Name:       s.name,
		Start:      s.start,
		AllocBytes: s.allocBytes,
		Mallocs:    s.mallocs,
	}
	if s.ended {
		r.DurationMS = float64(s.end.Sub(s.start).Microseconds()) / 1000
	} else {
		r.DurationMS = float64(clockNow().Sub(s.start).Microseconds()) / 1000
	}
	if len(s.attrs) > 0 {
		r.Attrs = append([]Attr(nil), s.attrs...)
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		r.Children = append(r.Children, c.Report())
	}
	return r
}
