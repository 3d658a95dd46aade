package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/atomd"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
)

// sampleEvery is the /atoms/ingest polling interval: the resolution of
// every visibility latency serve reports.
const sampleEvery = 2 * time.Millisecond

// lagEvery is the /metrics polling interval for the apply-loop backlog.
const lagEvery = 100 * time.Millisecond

// serveRate is the mapped updates per second the pacer offers: about a
// quarter of what ingest sustains on a 2-CPU host, leaving the closed-
// loop reader and the host's neighbours room. At twice the rate a
// stretch of stolen CPU let a backlog form and visibility jumped from
// milliseconds to seconds.
const serveRate = 50_000

// serveWarmup runs load before anything is recorded.
const serveWarmup = time.Second

// serveBoots is how many daemons a serve run boots to time set-up; the
// last one serves.
const serveBoots = 4

// sent is one record the pacer sent: when it was due and when it went
// out (ns since the load started), the mapped updates it carried and
// the cumulative count through it.
type sent struct {
	due, at int64
	mapped  int
	cum     int64
}

// pacer is the open-loop ingest generator: one session at a time,
// collectors in sorted order, cycling through the archives, each record
// sent when the offered rate says its first update is due.
type pacer struct {
	addr  string
	plans []sourcePlan
	rate  float64 // mapped updates per second
	t0    time.Time
	end   time.Time

	log      []sent             // allocated up front so the paced loop never grows it
	segments []bgpstream.Source // each session's bytes, in send order
	sessions ops
	errs     []error
}

// dueAt is when the update numbered n (0-based across the whole run)
// is due.
func (p *pacer) dueAt(n int64) int64 {
	return int64(float64(n) / p.rate * 1e9)
}

func (p *pacer) run() {
	var offered int64 // mapped updates of every record sent so far
	for {
		for pi := range p.plans {
			if !time.Now().Before(p.end) {
				return
			}
			n, err := p.session(&p.plans[pi], offered)
			p.sessions.add(err)
			if err != nil {
				p.errs = append(p.errs, fmt.Errorf("session %s: %w", p.plans[pi].collector, err))
				return
			}
			offered += n
		}
	}
}

// session paces one archive into a fresh session until the archive or
// the run's time ends, then drains it. It returns the mapped updates
// sent.
func (p *pacer) session(plan *sourcePlan, offered int64) (int64, error) {
	cl, err := atomd.Dial(p.addr, plan.collector)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	i, off := 0, 0
	prevCum := 0
	for i < len(plan.ends) {
		due := p.dueAt(offered + int64(prevCum))
		now := time.Since(p.t0).Nanoseconds()
		if now < due {
			if p.t0.Add(time.Duration(due)).After(p.end) {
				break
			}
			time.Sleep(time.Duration(due - now))
			now = time.Since(p.t0).Nanoseconds()
		}
		// Send, in one write, every record already due.
		j := i
		for j < len(plan.ends) {
			before := 0
			if j > 0 {
				before = plan.cum[j-1]
			}
			d := p.dueAt(offered + int64(before))
			if d > now {
				break
			}
			p.log = append(p.log, sent{d, now, plan.cum[j] - before, offered + int64(plan.cum[j])})
			j++
		}
		if err := cl.Send(plan.data[off:plan.ends[j-1]]); err != nil {
			return 0, err
		}
		off = plan.ends[j-1]
		prevCum = plan.cum[j-1]
		i = j
		if !time.Now().Before(p.end) {
			break
		}
	}
	if err := cl.Drain(); err != nil {
		return 0, err
	}
	p.segments = append(p.segments, bgpstream.BytesSource(plan.collector, plan.data[:off], bgp.Options{}))
	return int64(prevCum), nil
}

// prober is the closed-loop reader beside the pacer: binary-port
// SameAtom and MemberCount queries, every tenth over HTTP, with the
// ingest ledger sampled every sampleEvery and the apply backlog every
// lagEvery in between.
type prober struct {
	qc       *atomd.QueryClient
	hc       *httpConn
	t0       time.Time
	warm     time.Duration // queries before t0+warm are not recorded
	prefixes int
	rng      uint64

	rtt, httpRTT []int64 // ns, per query after the warm-up, from its due time
	measuredEnd  time.Duration
	sampleAt     []int64 // ns since t0, when each ledger sample returned
	sampleUpd    []int64 // ledger updates in that sample
	lagMax       float64
	queries      ops
	path         []byte
}

func (q *prober) next() int {
	// xorshift64: a deterministic row stream from the seed.
	q.rng ^= q.rng << 13
	q.rng ^= q.rng >> 7
	q.rng ^= q.rng << 17
	return int(q.rng % uint64(q.prefixes))
}

// sample reads the ledger once.
func (q *prober) sample() error {
	body, err := q.hc.get([]byte("/atoms/ingest"))
	if err != nil {
		return err
	}
	upd, err := sumField(body, []byte(`"updates":`))
	if err != nil {
		return err
	}
	q.sampleAt = append(q.sampleAt, time.Since(q.t0).Nanoseconds())
	q.sampleUpd = append(q.sampleUpd, int64(upd))
	return nil
}

// query runs request k of the mix and, past the warm-up, records its
// round trip from the moment it was due — in a closed loop, the moment
// the previous request finished.
func (q *prober) query(k int, due time.Time, record bool) error {
	var err error
	httpReq := k%10 == 9
	switch {
	case httpReq && k%20 == 19:
		q.path = append(q.path[:0], "/atoms/membercount?p="...)
		q.path = strconv.AppendInt(q.path, int64(q.next()), 10)
		_, err = q.hc.get(q.path)
	case httpReq:
		q.path = append(q.path[:0], "/atoms/sameatom?p="...)
		q.path = strconv.AppendInt(q.path, int64(q.next()), 10)
		q.path = append(q.path, "&q="...)
		q.path = strconv.AppendInt(q.path, int64(q.next()), 10)
		_, err = q.hc.get(q.path)
	case k%2 == 0:
		_, _, err = q.qc.SameAtom(q.next(), q.next())
	default:
		_, _, err = q.qc.MemberCount(q.next())
	}
	if err != nil || !record {
		return err
	}
	if httpReq {
		q.httpRTT = append(q.httpRTT, time.Since(due).Nanoseconds())
	} else {
		q.rtt = append(q.rtt, time.Since(due).Nanoseconds())
	}
	return nil
}

// run probes until done closes, then takes one last ledger sample.
func (q *prober) run(done <-chan struct{}) error {
	nextSample, nextLag := time.Duration(0), time.Duration(0)
	for k := 0; ; {
		select {
		case <-done:
			q.measuredEnd = time.Since(q.t0)
			return q.sample()
		default:
		}
		now := time.Now()
		since := now.Sub(q.t0)
		switch {
		case since >= nextSample:
			if err := q.sample(); err != nil {
				return err
			}
			nextSample += sampleEvery
			if nextSample < since {
				nextSample = since + sampleEvery
			}
		case since >= nextLag:
			prom, err := q.hc.get([]byte("/metrics"))
			if err != nil {
				return err
			}
			q.lagMax = max(q.lagMax, promValue(prom, "atom_atomd_ingest_lag_batches"))
			nextLag += lagEvery
		default:
			q.queries.add(q.query(k, now, since >= q.warm))
			k++
		}
	}
}

// runServe measures reads beside writes: a paced open-loop ingest at a
// fixed rate and one closed-loop query client, on one daemon, for the
// run's time after a warm-up. Every boot before the serving one only
// times the set-up.
func runServe(r *run) {
	in, err := prepareDaemon(r)
	if err != nil {
		r.ops.add(err)
		r.fail("prepare: %v", err)
		return
	}
	var boots []float64
	var d *daemon
	for i := 0; i < serveBoots; i++ {
		d, err = startDaemon(r.env.atomd, 0, in.ribFiles)
		if err != nil {
			r.ops.add(err)
			r.fail("boot %d: %v", i, err)
			return
		}
		boots = append(boots, d.boot.Seconds())
		if i < serveBoots-1 {
			if _, err := d.stop(); err != nil {
				r.fail("boot %d: %v", i, err)
			}
		}
	}
	r.sample("setup_s", boots...)
	serve(r, d, in)
	mb, err := d.stop()
	if err != nil {
		r.fail("%v", err)
	}
	r.set("peak_rss_mb", mb, 1)
}

func serve(r *run, d *daemon, in *daemonInput) {
	qc, err := atomd.DialQuery(d.queryAddr)
	if err != nil {
		r.ops.add(err)
		r.fail("dial query port: %v", err)
		return
	}
	defer qc.Close()
	_, _, prefixes, err := qc.Epoch()
	if err != nil || prefixes == 0 {
		r.ops.add(err)
		r.fail("epoch: %d prefixes, %v", prefixes, err)
		return
	}
	hc, err := dialHTTP(d.httpAddr)
	if err != nil {
		r.ops.add(err)
		r.fail("dial http: %v", err)
		return
	}
	defer hc.Close()

	warm := serveWarmup
	window := warm + r.env.seconds
	records := 0
	for i := range in.plans {
		records += len(in.plans[i].ends)
	}
	passes := int(serveRate*window.Seconds())/max(in.planned, 1) + 2
	t0 := time.Now()
	p := &pacer{addr: d.ingestAddr, plans: in.plans, rate: serveRate, t0: t0, end: t0.Add(window)}
	p.log = make([]sent, 0, passes*records)
	// Capacity for a closed loop of up to 100k queries/s.
	queries := int(window.Seconds()*100_000) + 1
	samples := int(window/sampleEvery) + 64
	q := &prober{qc: qc, hc: hc, t0: t0, warm: warm, prefixes: prefixes, rng: r.env.seed*2654435761 + 1,
		rtt: make([]int64, 0, queries), httpRTT: make([]int64, 0, queries/10+1),
		sampleAt: make([]int64, 0, samples), sampleUpd: make([]int64, 0, samples)}

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.run()
	}()
	perr := q.run(done)
	<-done

	r.ops.attempted += p.sessions.attempted + q.queries.attempted
	r.ops.failed += p.sessions.failed + q.queries.failed
	for _, err := range p.errs {
		r.fail("%v", err)
	}
	if perr != nil {
		r.ops.add(perr)
		r.fail("probe: %v", perr)
		return
	}
	if q.queries.failed > 0 {
		r.fail("%d of %d queries failed", q.queries.failed, q.queries.attempted)
	}

	// Statistics over the measured window only: records due and queries
	// issued after the warm-up.
	warmNs := warm.Nanoseconds()
	vis, late := visibility(p.log, q.sampleAt, q.sampleUpd, warmNs)
	if vis == nil {
		r.fail("no update became visible in the measured window")
		return
	}
	r.set("latency_p50_ms", percentile(vis, 0.5), len(vis))
	noteTail(r, "visible", vis, "ms")
	noteTail(r, "generator.late", late, "ms")
	r.set("throughput_per_s", appliedRate(q.sampleAt, q.sampleUpd, warmNs), len(q.sampleAt))
	nq := len(q.rtt) + len(q.httpRTT)
	r.note("queries_per_s", float64(nq)/(q.measuredEnd-warm).Seconds())
	rtt := durations(q.rtt, time.Microsecond)
	r.note("query_rtt_p50_us", percentile(rtt, 0.5))
	noteTail(r, "query_rtt", rtt, "us")
	r.note("http_rtt_p50_us", percentile(durations(q.httpRTT, time.Microsecond), 0.5))
	r.note("atomd.lag_batches_max", q.lagMax)
	r.note("sample_interval_ms", float64(sampleEvery)/float64(time.Millisecond))
	r.note("ledger_samples", float64(len(q.sampleAt)))
	if n := len(p.log); n > 0 {
		last := p.log[n-1]
		r.note("generator.offered_updates_per_s", float64(last.cum)/(float64(last.at)/1e9))
		r.note("updates_sent", float64(last.cum))
	}
	r.note("sessions", float64(p.sessions.attempted))

	checkServed(r, d, in, p)
	if prom, err := hc.get([]byte("/metrics")); err == nil {
		r.note("atomd.query_server_p50_ns", promValue(prom, `atom_atomd_query_ns{op="sameatom",quantile="0.5"}`))
		r.note("atomd.query_server_p99_ns", promValue(prom, `atom_atomd_query_ns{op="sameatom",quantile="0.99"}`))
	}
}

// visibility pairs every mapped update due after the warm-up with the
// first ledger sample that counts it, returning the sorted latencies
// (due to visible) and the sorted per-record send lateness, both in ms.
// It returns nil when some update was never seen.
func visibility(log []sent, at, upd []int64, warmNs int64) (vis, late []float64) {
	s := 0
	for _, rec := range log {
		if rec.due < warmNs {
			continue
		}
		late = append(late, float64(rec.at-rec.due)/1e6)
		if rec.mapped == 0 {
			continue
		}
		for s < len(upd) && upd[s] < rec.cum {
			s++
		}
		if s == len(upd) {
			return nil, nil
		}
		lat := float64(at[s]-rec.due) / 1e6
		for k := 0; k < rec.mapped; k++ {
			vis = append(vis, lat)
		}
	}
	return sortedCopy(vis), sortedCopy(late)
}

// appliedRate is the daemon's applied-update rate over the measured
// window: the ledger's growth from the first sample after the warm-up
// to the last sample, which follows the pacer's final drain. At a
// sustainable offered rate it equals the offered rate; a daemon that
// falls behind pushes back on the pacer and the rate drops.
func appliedRate(at, upd []int64, warmNs int64) float64 {
	first := 0
	for first < len(at) && at[first] < warmNs {
		first++
	}
	last := len(at) - 1
	if first >= last {
		return math.NaN()
	}
	return float64(upd[last]-upd[first]) / (float64(at[last]-at[first]) / 1e9)
}

// noteTail records the highest well-supported percentile of sorted.
func noteTail(r *run, name string, sorted []float64, unit string) {
	label, v, ok := tail(sorted)
	if !ok {
		return
	}
	r.note(fmt.Sprintf("%s_%s_%s", name, label, unit), v)
	r.note(name+"_samples", float64(len(sorted)))
}

// checkServed holds the served daemon to the batch answer for exactly
// the bytes the pacer sent: the ledger counts every sent update, and
// the snapshot equals a replay of the sent segments in send order.
func checkServed(r *run, d *daemon, in *daemonInput, p *pacer) {
	ref, st, err := referenceAtoms(in.snap, p.segments)
	if err != nil {
		r.fail("%v", err)
		return
	}
	r.digest("reference", hexDigest(ref))
	if n := len(p.log); n == 0 || int64(st.Updates) != p.log[n-1].cum {
		r.fail("reference replay mapped %d updates of the %d records the pacer sent", st.Updates, n)
	}
	r.note("world.noop_ratio", ratio(st.NoOps, st.Updates))
	checkDrained(r, d, st.Updates, ref)
}
