package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// spanLayers maps each span name the batch pipeline emits to the layer
// metric its self time feeds. An empty layer is unattributed time: the
// bench's own root and the orchestration spans that only wrap stages. A
// span name missing from the table inherits its parent's layer, so a
// finer span added inside a stage later keeps that stage's total.
var spanLayers = map[string]string{
	"longitudinal.trend_era": "",
	"longitudinal.run_era":   "",
	"updates":                "",

	"era.generate":            "topology.generate_s",
	"snapshot":                "routing.overlay_s",
	"collector.build_feeds":   "collector.build_snapshot_s",
	"collector.build_ribs":    "collector.build_snapshot_s",
	"collector.build_updates": "collector.build_updates_s",

	"sanitize.ingest":         "decode.ingest_s",
	"metrics.collect_records": "decode.ingest_s",

	"sanitize.clean_feeds": "sanitize.filters_s",
	"abnormal_peers":       "sanitize.filters_s",
	"full_feed":            "sanitize.filters_s",
	"intern":               "sanitize.intern_s",
	"admission":            "sanitize.admission_s",
	"assemble":             "sanitize.assemble_s",

	"core.compute_atoms": "core.compute_atoms_s",

	"metrics.formation_distances": "metrics.analyses_s",
	"metrics.compare_stability":   "metrics.analyses_s",
	"metrics.correlate_updates":   "metrics.analyses_s",
}

// unattributedLayer names the time no layer claims.
const unattributedLayer = "longitudinal.unattributed_s"

// spanNode is one span flattened for the sweep.
type spanNode struct {
	rep        *obs.SpanReport
	layer      string
	start, end int64 // unix ns, clipped to the root's interval
	depth      int
	order      int // preorder index: the tie-break after start and depth
}

// flatten lists the tree in preorder, resolving each span's layer and
// clipping its interval to the root's, so sub-microsecond rounding in
// DurationMS cannot push a child outside its root.
func flatten(root *obs.SpanReport) []spanNode {
	var out []spanNode
	rs := root.Start.UnixNano()
	re := rs + msToNs(root.DurationMS)
	var walk func(r *obs.SpanReport, parentLayer string, depth int)
	walk = func(r *obs.SpanReport, parentLayer string, depth int) {
		layer, ok := spanLayers[r.Name]
		if !ok {
			layer = parentLayer
		}
		s := r.Start.UnixNano()
		e := s + msToNs(r.DurationMS)
		s, e = max(s, rs), min(e, re)
		if e < s {
			e = s
		}
		out = append(out, spanNode{rep: r, layer: layer, start: s, end: e, depth: depth, order: len(out)})
		for _, c := range r.Children {
			walk(c, layer, depth+1)
		}
	}
	walk(root, unattributedLayer, 0)
	for i := range out {
		if out[i].layer == "" {
			out[i].layer = unattributedLayer
		}
	}
	return out
}

func msToNs(ms float64) int64 { return int64(math.Round(ms * 1e6)) }

// innermost reports whether a is nested more deeply than b at an
// instant where both are open: the later start wins, then the greater
// depth, then the later preorder position. Under a sequential run the
// most recently started open span is the one on top of the call stack,
// whatever its parent link says — which is what makes a span such as
// "updates" (parented to the era span, but started inside "snapshot")
// take its own time away from "snapshot" and not from its parent.
func innermost(a, b *spanNode) bool {
	if a.start != b.start {
		return a.start > b.start
	}
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	return a.order > b.order
}

// selfTimes returns, for every span of the tree in preorder, the time
// during which it was the innermost open span. It sweeps the start and
// end events in time order instead of subtracting summed child
// durations, so siblings that overlap their parent's siblings can never
// drive a self time negative, and the self times sum exactly to the
// root's duration. The tree should come from a sequential (workers=1)
// run: with concurrent spans "innermost" picks one of them arbitrarily.
func selfTimes(root *obs.SpanReport) ([]spanNode, []time.Duration) {
	nodes := flatten(root)
	type event struct {
		t    int64
		open bool
		node int
	}
	events := make([]event, 0, 2*len(nodes))
	for i, n := range nodes {
		events = append(events, event{n.start, true, i}, event{n.end, false, i})
	}
	// Closes sort before opens at the same instant, so a span that ends
	// exactly when its successor starts is never charged for it.
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return !events[i].open && events[j].open
	})
	self := make([]time.Duration, len(nodes))
	var open []int
	prev := int64(0)
	for _, ev := range events {
		if len(open) > 0 && ev.t > prev {
			top := open[0]
			for _, o := range open[1:] {
				if innermost(&nodes[o], &nodes[top]) {
					top = o
				}
			}
			self[top] += time.Duration(ev.t - prev)
		}
		prev = ev.t
		if ev.open {
			open = append(open, ev.node)
			continue
		}
		for k, o := range open {
			if o == ev.node {
				open = append(open[:k], open[k+1:]...)
				break
			}
		}
	}
	return nodes, self
}

// layerTimes folds self times into layer metrics. Every instant of the
// root's interval lands in exactly one layer, unattributed included, so
// the values sum to the root's duration.
func layerTimes(root *obs.SpanReport) map[string]time.Duration {
	nodes, self := selfTimes(root)
	out := make(map[string]time.Duration)
	for i, n := range nodes {
		out[n.layer] += self[i]
	}
	return out
}

// allocBytes sums the allocation deltas of the spans whose names start
// with prefix and none of whose ancestors do. A span's AllocBytes
// already includes its children's, so counting only the outermost
// matching spans counts every byte once.
func allocBytes(root *obs.SpanReport, prefix string) uint64 {
	var sum uint64
	var walk func(r *obs.SpanReport)
	walk = func(r *obs.SpanReport) {
		if strings.HasPrefix(r.Name, prefix) {
			sum += r.AllocBytes
			return
		}
		for _, c := range r.Children {
			walk(c)
		}
	}
	walk(root)
	return sum
}
