package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomd"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/topology"
)

// ingestUpdates is the mapped updates one ingest rep streams; the
// 12-hour worlds of seeds 1 to 20 map 457k or more.
const ingestUpdates = 400_000

// daemonInput is what both daemon workloads prepare before measuring:
// the world, its RIBs on disk for atomd, the universe atomd will boot
// (for planning and the reference) and the per-record plan.
type daemonInput struct {
	world    *world
	ribFiles []string
	snap     *core.Snapshot
	plans    []sourcePlan
	planned  int // mapped updates in one pass over every update archive
}

func prepareDaemon(r *run) (*daemonInput, error) {
	start := time.Now()
	scale := r.env.size.daemonScale
	w := buildWorld(r.worldSeed(scale, []topology.Era{daemonEra}), scale, r.env.size.daemonHours)
	ribs, err := w.writeRIBs(r.env.dir)
	if err != nil {
		return nil, err
	}
	snap, err := universe(w.ribs, 0)
	if err != nil {
		return nil, err
	}
	plans, err := planSources(snap, w.updates)
	if err != nil {
		return nil, err
	}
	in := &daemonInput{world: w, ribFiles: ribs, snap: snap, plans: plans}
	for i := range plans {
		in.planned += plans[i].mapped()
	}
	rb, ub := w.bytes()
	r.note("world.collectors", float64(len(w.updates)))
	r.note("world.rib_mb", float64(rb)/(1<<20))
	r.note("world.update_mb", float64(ub)/(1<<20))
	r.note("world.prefixes", float64(len(snap.Prefixes)))
	r.note("world.vps", float64(len(snap.VPs)))
	r.note("world.planned_updates", float64(in.planned))
	r.note("world.prepare_s", time.Since(start).Seconds())
	return in, nil
}

// runIngest measures saturating writes: each rep boots a fresh daemon
// and streams the update archives into it closed-loop, two sessions at
// a time, collectors in sorted order, with no queries. Every archive is
// cut to the same share of its mapped updates so a rep carries
// ingestUpdates in total whatever the seed's world size.
func runIngest(r *run) {
	in, err := prepareDaemon(r)
	if err != nil {
		r.ops.add(err)
		r.fail("prepare: %v", err)
		return
	}
	share := min(1, float64(ingestUpdates)/float64(in.planned))
	plans := make([]sourcePlan, len(in.plans))
	sources := make([]bgpstream.Source, len(in.plans))
	planned := 0
	for i := range in.plans {
		plans[i] = in.plans[i].head(int(share * float64(in.plans[i].mapped())))
		sources[i] = bgpstream.BytesSource(plans[i].collector, plans[i].data, bgp.Options{})
		planned += plans[i].mapped()
	}
	r.note("ingest_updates", float64(planned))
	ref, st, err := referenceAtoms(in.snap, sources)
	if err != nil {
		r.ops.add(err)
		r.fail("%v", err)
		return
	}
	if st.Updates != planned {
		r.fail("reference replay mapped %d updates, the per-record plan %d", st.Updates, planned)
	}
	r.digest("reference", hexDigest(ref))
	r.note("world.noop_ratio", ratio(st.NoOps, st.Updates))

	var boots, walls, rss []float64
	deadline := time.Now().Add(r.env.seconds)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		d, err := startDaemon(r.env.atomd, 0, in.ribFiles)
		if err != nil {
			r.ops.add(err)
			r.fail("rep %d: %v", rep, err)
			return
		}
		boots = append(boots, d.boot.Seconds())
		wall, errs := ingestAll(d.ingestAddr, plans, 2)
		for i, err := range errs {
			r.ops.add(err)
			if err != nil {
				r.fail("rep %d: session %s: %v", rep, plans[i].collector, err)
			}
		}
		walls = append(walls, wall.Seconds())
		checkDrained(r, d, planned, ref)
		mb, err := d.stop()
		if err != nil {
			r.fail("rep %d: %v", rep, err)
		}
		rss = append(rss, mb)
	}
	r.sample("setup_s", boots...)
	r.sample("latency_p50_ms", scale(walls, 1000)...)
	r.set("throughput_per_s", float64(planned)/median(walls), len(walls))
	r.sample("peak_rss_mb", rss...)
}

// ingestAll streams every plan's archive through its own session,
// sessions at a time, and returns the time from the first byte to the
// last drained ack.
func ingestAll(addr string, plans []sourcePlan, sessions int) (time.Duration, []error) {
	errs := make([]error, len(plans))
	var next atomic.Int32
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plans) {
					return
				}
				errs[i] = ingestSession(addr, plans[i].collector, plans[i].data)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errs
}

// ingestSession sends one archive and waits for the drained ack: every
// byte decoded and applied.
func ingestSession(addr, collector string, data []byte) error {
	cl, err := atomd.Dial(addr, collector)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Send(data); err != nil {
		return err
	}
	return cl.Drain()
}

// checkDrained holds a drained daemon to the batch answer: its ledger
// counts exactly the planned updates with nothing quarantined, no
// session was NAKed, and its materialized snapshot renders byte for
// byte as the reference replay.
func checkDrained(r *run, d *daemon, planned int, ref []byte) {
	hc, err := dialHTTP(d.httpAddr)
	if err != nil {
		r.fail("dial atomd http: %v", err)
		return
	}
	defer hc.Close()
	ledger, err := hc.get([]byte("/atoms/ingest"))
	if err != nil {
		r.fail("/atoms/ingest: %v", err)
		return
	}
	updates, err := sumField(ledger, []byte(`"updates":`))
	if err != nil || updates != planned {
		r.fail("ledger counts %d updates (%v), planned %d", updates, err, planned)
	}
	if !bytes.Contains(ledger, []byte(`"quarantined":[]`)) {
		r.fail("quarantined streams: %s", ledger)
	}
	prom, err := hc.get([]byte("/metrics"))
	if err != nil {
		r.fail("/metrics: %v", err)
		return
	}
	if naks := promValue(prom, "atom_atomd_naks"); naks != 0 {
		r.fail("daemon sent %g NAKs", naks)
	}
	if q := promValue(prom, "atom_atomd_quarantined"); q != 0 {
		r.fail("daemon quarantined %g streams", q)
	}
	r.note("atomd.epochs", promValue(prom, "atom_atomd_epoch"))
	r.note("atomd.batches_applied", promValue(prom, "atom_atomd_batches_applied"))
	snap, err := hc.get([]byte("/atoms/snapshot?workers=1"))
	if err != nil {
		r.fail("/atoms/snapshot: %v", err)
		return
	}
	r.digest("daemon", hexDigest(snap))
	if !bytes.Equal(snap, ref) {
		r.fail("drained daemon snapshot (%d bytes, %s) differs from the reference replay (%d bytes, %s)",
			len(snap), hexDigest(snap), len(ref), hexDigest(ref))
	}
}

// promValue returns the value of one exposition series ("name" or
// "name{labels}"), or 0 when the series is absent.
func promValue(text []byte, series string) float64 {
	for _, line := range bytes.Split(text, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(series+" "))
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(string(rest), &v); err == nil {
			return v
		}
	}
	return 0
}

func hexDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
