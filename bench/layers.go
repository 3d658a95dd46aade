package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/aspath"
	"repro/internal/atomd"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/replay"
)

// flushSize mirrors atomd's delta batch: a session hands its mapped
// deltas to the apply loop once at least this many have accumulated
// after a decoded record, and the apply loop publishes one view per
// non-empty batch.
const flushSize = 256

// daemonLayers is the daemon's ingest path replayed layer by layer.
type daemonLayers struct {
	frame, decode, mapT, apply, publish time.Duration
	publishAlloc                        uint64
	elems, skipped, updates, noops      int
	batches, noopBatches                int
}

type cell struct {
	p, v int
	id   aspath.ID
}

// replayLayers pushes the world's update bytes through the daemon's
// layers in sequence on one goroutine — framing, reader-backed decode
// with the daemon's stream configuration, mapping, apply, publish — and
// times each layer's calls separately. It boots its own universe, so
// the index it mutates is private.
func replayLayers(w *world) (daemonLayers, error) {
	var l daemonLayers
	snap, err := universe(w.ribs, 1)
	if err != nil {
		return l, err
	}
	mapper := replay.NewMapper(snap)
	ix := core.NewAtomIndex(snap)
	var (
		fbuf  []byte
		fp    atomd.FrameParser
		remap []int32
		cells = make([]cell, 0, 4*flushSize)
		ms    runtime.MemStats
	)
	flush := func() {
		if len(cells) == 0 {
			return
		}
		l.batches++
		t := time.Now()
		noops := 0
		for _, c := range cells {
			if ix.ApplyUpdate(c.p, c.v, c.id).NoOp {
				noops++
			}
		}
		l.apply += time.Since(t)
		l.updates += len(cells)
		l.noops += noops
		if noops == len(cells) {
			l.noopBatches++
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t = time.Now()
		_, remap = ix.Partition(remap)
		l.publish += time.Since(t)
		runtime.ReadMemStats(&ms)
		l.publishAlloc += ms.TotalAlloc - before
		cells = cells[:0]
	}
	for _, src := range w.updates {
		// Framing: the client frames one record per DATA frame, the
		// session's parser takes the frames back apart.
		t := time.Now()
		for off := 0; off < len(src.Data); {
			end, ok := recordEnd(src.Data, off)
			if !ok {
				return l, fmt.Errorf("layer replay %s: truncated record at %d", src.Collector, off)
			}
			fbuf = atomd.AppendFrame(fbuf[:0], atomd.FrameData, uint64(off), src.Data[off:end])
			fp.Feed(fbuf)
			if fr, ok, err := fp.Next(); err != nil || !ok || len(fr.Payload) != end-off {
				return l, fmt.Errorf("layer replay %s: frame at %d did not round-trip", src.Collector, off)
			}
			off = end
		}
		l.frame += time.Since(t)

		st := bgpstream.NewStream(nil, bgpstream.Source{Collector: src.Collector, R: bytes.NewReader(src.Data)})
		st.SetWorkers(1)
		st.SetIntern(snap.Paths)
		for {
			t := time.Now()
			batch, err := st.NextBatch()
			l.decode += time.Since(t)
			if err == io.EOF {
				break
			}
			if err != nil {
				return l, fmt.Errorf("layer replay %s: %w", src.Collector, err)
			}
			t = time.Now()
			for i := range batch {
				p, v, id, reason := mapper.Map(&batch[i])
				if reason != replay.SkipNone {
					l.skipped++
					continue
				}
				cells = append(cells, cell{p, v, id})
			}
			l.mapT += time.Since(t)
			l.elems += len(batch)
			if len(cells) >= flushSize {
				flush()
			}
		}
		flush()
	}
	return l, nil
}

// report records the layer replay's per-layer metrics.
func (l daemonLayers) report(r *run) {
	r.set("atomd.frame_s", l.frame.Seconds(), 1)
	r.set("bgpstream.decode_s", l.decode.Seconds(), 1)
	r.set("replay.map_s", l.mapT.Seconds(), 1)
	r.set("core.apply_s", l.apply.Seconds(), 1)
	r.set("core.publish_s", l.publish.Seconds(), l.batches)
	r.set("core.publish_alloc_mb", float64(l.publishAlloc)/(1<<20), l.batches)
	r.set("bgpstream.elems", float64(l.elems), 1)
	r.set("replay.skip_ratio", ratio(l.skipped, l.elems), l.elems)
	r.set("core.noop_ratio", ratio(l.noops, l.updates), l.updates)
	r.set("core.noop_batch_ratio", ratio(l.noopBatches, l.batches), l.batches)
	r.set("core.batches", float64(l.batches), 1)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
