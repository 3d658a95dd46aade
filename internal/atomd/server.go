// Server wiring: listeners, the single apply goroutine that owns the
// AtomIndex, the delta channel every ingest session feeds, and the
// drain choreography. Concurrency is deliberately simple:
//
//   - one goroutine per accepted connection (ingest or query);
//   - one decode goroutine per ingest session, started at hello;
//   - exactly one apply goroutine mutating the index, fed by a FIFO
//     channel — so any command enqueued after a set of delta batches
//     observes all of them, which is the whole barrier story;
//   - queries never touch the index, only the published view.
//
// Determinism across sessions: a vantage point is (collector, peer),
// one session carries one collector, so concurrent sessions write
// disjoint matrix columns. The final matrix — and therefore the
// materialized atoms, which canonical numbering derives from the
// matrix alone — is independent of how the apply loop interleaved the
// sessions' batches. That is why the daemon equals batch replay at any
// worker count and any arrival order (the differential tests pin it).
package atomd

import (
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspath"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replay"
)

// deltaFlushSize is how many mapped deltas a decode goroutine batches
// before handing them to the apply loop. Flush boundaries depend only
// on the session's own byte stream, never on timing, and the apply
// loop publishes a new epoch only for a batch that changed at least
// one cell, so the number of published epochs is deterministic for a
// given ingest history.
const deltaFlushSize = 256

// Config configures a Server.
type Config struct {
	// Snapshot is the serving universe — prefix rows, VP columns, the
	// intern table — normally built from RIB archives by sanitize. The
	// server owns its routes matrix from here on.
	Snapshot *core.Snapshot
	// IngestAddr is the TCP address for ingest sessions ("" means
	// loopback with a kernel-assigned port).
	IngestAddr string
	// QueryAddr is the TCP address for the binary query port ("" means
	// loopback with a kernel-assigned port; queries are also always
	// available via RegisterHTTP).
	QueryAddr string
	// Workers bounds materialization fan-out (snapshots, the HTTP
	// snapshot endpoint). Ingest decode is per-session sequential —
	// that is what makes a session's element order well-defined.
	Workers int
	// Metrics receives atomd.* instruments when non-nil.
	Metrics *obs.Registry
}

// delta is one mapped update: matrix cell (p, v) becomes id.
type delta struct {
	p, v int32
	id   aspath.ID
}

// applyMsg is one unit of apply-loop work: a delta batch from a
// session (src != nil), or a command (reply != nil) — a barrier, a
// partition read, or a full materialization.
type applyMsg struct {
	src     *SourceStats
	deltas  []delta
	elems   int // elements decoded for this batch, skipped included
	skipped int

	reply       chan applyReply
	workers     int
	materialize bool
}

type applyReply struct {
	epoch uint64
	stats core.DeltaStats
	atoms *core.AtomSet
}

// SourceStats is the per-collector ingest ledger, served by
// /atoms/ingest and IngestStats.
type SourceStats struct {
	Collector string
	Sessions  int    // sessions opened for this collector
	Bytes     uint64 // payload bytes accepted (post-dedup)
	Elems     int    // elements decoded
	Updates   int    // elements mapped to a cell
	Applied   int    // updates that re-bucketed a row
	NoOps     int    // updates re-announcing the resident route
	Skipped   int    // elements with no cell (prefix/vp/type/unusable)
}

// Server is the daemon. Construct with NewServer; it serves until
// Shutdown. Safe for concurrent use: queries from any goroutine,
// sessions from any number of peers.
type Server struct {
	cfg    Config
	ix     *core.AtomIndex
	snap   *core.Snapshot
	mapper *replay.Mapper
	view   atomic.Pointer[view]

	ingestLn net.Listener
	queryLn  net.Listener

	applyCh   chan applyMsg
	applyQuit chan struct{} // closed after sessions join: apply loop may drain and exit
	applyDone chan struct{} // closed when the apply loop has exited
	freeCh    chan []delta  // delta-slice recycling between sessions and apply

	wg sync.WaitGroup // accept loops + conn/session/decode goroutines

	mu           sync.Mutex
	closing      bool
	conns        map[net.Conn]struct{}
	sources      map[string]*SourceStats
	sessionLocks map[string]*sync.Mutex
	quarantined  []string
	sessionCount int

	enqueued atomic.Uint64 // delta batches handed to the apply loop
	applied  atomic.Uint64 // delta batches the apply loop has consumed

	closeOnce sync.Once
	closeErr  error

	m serverMetrics
}

type serverMetrics struct {
	sessions *obs.Gauge
	epoch    *obs.Gauge
	lag      *obs.Gauge
	bytes    *obs.Counter
	elems    *obs.Counter
	applied  *obs.Counter
	noops    *obs.Counter
	batches  *obs.Counter
	naks     *obs.Counter
	quar     *obs.Counter
	queryNs  map[string]*obs.Histogram
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	m := serverMetrics{
		sessions: r.Gauge("atomd.sessions"),
		epoch:    r.Gauge("atomd.epoch"),
		lag:      r.Gauge("atomd.ingest_lag_batches"),
		bytes:    r.Counter("atomd.ingest_bytes"),
		elems:    r.Counter("atomd.ingest_elems"),
		applied:  r.Counter("atomd.applied"),
		noops:    r.Counter("atomd.noops"),
		batches:  r.Counter("atomd.batches_applied"),
		naks:     r.Counter("atomd.naks"),
		quar:     r.Counter("atomd.quarantined"),
		queryNs:  make(map[string]*obs.Histogram),
	}
	for _, op := range []string{"sameatom", "membercount", "prefixatom", "epoch", "snapshot"} {
		m.queryNs[op] = r.Histogram("atomd.query_ns", "op", op)
	}
	return m
}

// NewServer builds the resident index over cfg.Snapshot (one batch
// grouping), binds both listeners, publishes the epoch-0 view, and
// starts serving. The caller must Shutdown to release everything.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Snapshot == nil {
		return nil, errors.New("atomd: Config.Snapshot is required")
	}
	if cfg.IngestAddr == "" {
		cfg.IngestAddr = "127.0.0.1:0"
	}
	if cfg.QueryAddr == "" {
		cfg.QueryAddr = "127.0.0.1:0"
	}
	ingestLn, err := net.Listen("tcp", cfg.IngestAddr)
	if err != nil {
		return nil, err
	}
	queryLn, err := net.Listen("tcp", cfg.QueryAddr)
	if err != nil {
		ingestLn.Close()
		return nil, err
	}
	srv := &Server{
		cfg:          cfg,
		ix:           core.NewAtomIndex(cfg.Snapshot),
		snap:         cfg.Snapshot,
		mapper:       replay.NewMapper(cfg.Snapshot),
		ingestLn:     ingestLn,
		queryLn:      queryLn,
		applyCh:      make(chan applyMsg, 64),
		applyQuit:    make(chan struct{}),
		applyDone:    make(chan struct{}),
		freeCh:       make(chan []delta, 64),
		conns:        make(map[net.Conn]struct{}),
		sources:      make(map[string]*SourceStats),
		sessionLocks: make(map[string]*sync.Mutex),
		m:            newServerMetrics(cfg.Metrics),
	}
	part, _ := srv.ix.Partition(nil)
	srv.view.Store(&view{epoch: 0, part: part})

	go func() {
		defer close(srv.applyDone)
		srv.applyLoop()
	}()
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.acceptLoop(srv.ingestLn, true)
	}()
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.acceptLoop(srv.queryLn, false)
	}()
	return srv, nil
}

// Addr returns the bound ingest address.
func (srv *Server) Addr() string { return srv.ingestLn.Addr().String() }

// QueryAddr returns the bound binary query port address.
func (srv *Server) QueryAddr() string { return srv.queryLn.Addr().String() }

// acceptLoop accepts connections until the listener closes, spawning
// one tracked goroutine per connection.
func (srv *Server) acceptLoop(ln net.Listener, ingest bool) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		if !srv.track(conn) {
			conn.Close()
			return
		}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			defer srv.untrack(conn)
			if ingest {
				s := &session{conn: conn}
				s.run(srv)
			} else {
				srv.serveQuery(conn)
			}
		}()
	}
}

// track registers a live connection for shutdown teardown; false means
// the server is already closing and the conn must be dropped.
func (srv *Server) track(conn net.Conn) bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closing {
		return false
	}
	srv.conns[conn] = struct{}{}
	return true
}

func (srv *Server) untrack(conn net.Conn) {
	srv.mu.Lock()
	delete(srv.conns, conn)
	srv.mu.Unlock()
}

// source returns (creating on first use) the ledger for a collector,
// counting the new session.
func (srv *Server) source(collector string) *SourceStats {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	st := srv.sources[collector]
	if st == nil {
		st = &SourceStats{Collector: collector}
		srv.sources[collector] = st
	}
	st.Sessions++
	return st
}

// collectorLock returns the per-collector session mutex, created on
// first use. A session holds it from hello through decoder join, so a
// reconnecting collector (crash + resume) never interleaves its
// replayed suffix with the previous incarnation's still-draining
// deltas — per-cell stream order, which idempotent suffix replay
// depends on, is preserved across restarts.
func (srv *Server) collectorLock(collector string) *sync.Mutex {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	l := srv.sessionLocks[collector]
	if l == nil {
		l = new(sync.Mutex)
		srv.sessionLocks[collector] = l
	}
	return l
}

// addQuarantine records a quarantined stream (wire-level or decode-
// level), mirroring bgpstream's quarantine ledger.
func (srv *Server) addQuarantine(name string) {
	srv.mu.Lock()
	srv.quarantined = append(srv.quarantined, name)
	srv.mu.Unlock()
	srv.m.quar.Inc()
}

// Quarantined returns the names of quarantined streams, sorted.
func (srv *Server) Quarantined() []string {
	srv.mu.Lock()
	out := append([]string(nil), srv.quarantined...)
	srv.mu.Unlock()
	sort.Strings(out)
	return out
}

// IngestStats returns a copy of every source ledger, sorted by
// collector name.
func (srv *Server) IngestStats() []SourceStats {
	srv.mu.Lock()
	out := make([]SourceStats, 0, len(srv.sources))
	for _, st := range srv.sources {
		out = append(out, *st)
	}
	srv.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Collector < out[j].Collector })
	return out
}

// getDeltaBuf hands out a recycled delta slice (or a fresh one).
func (srv *Server) getDeltaBuf() []delta {
	select {
	case b := <-srv.freeCh:
		return b
	default:
		return make([]delta, 0, deltaFlushSize)
	}
}

// enqueue hands a delta batch to the apply loop. Sessions only call
// this while they are tracked by srv.wg, and Shutdown lets the apply
// loop exit only after the wait group drains, so the send always
// completes.
func (srv *Server) enqueue(msg applyMsg) {
	srv.enqueued.Add(1)
	srv.applyCh <- msg
}

// applyLoop is the single goroutine that owns the index. It exits once
// applyQuit is closed and the channel is drained.
func (srv *Server) applyLoop() {
	var remap []int32
	epoch := uint64(0)
	for {
		var msg applyMsg
		select {
		case msg = <-srv.applyCh:
		case <-srv.applyQuit:
			select {
			case msg = <-srv.applyCh:
			default:
				return
			}
		}
		epoch, remap = srv.apply(msg, epoch, remap)
	}
}

// apply handles one message: a command answers against the current
// index state; a delta batch mutates the index and, when it changed at
// least one cell, publishes the next view generation.
func (srv *Server) apply(msg applyMsg, epoch uint64, remap []int32) (uint64, []int32) {
	if msg.reply != nil {
		r := applyReply{epoch: epoch, stats: srv.ix.Stats()}
		if msg.materialize {
			r.atoms = srv.ix.Materialize(msg.workers)
		}
		msg.reply <- r
		return epoch, remap
	}
	var applied, noops int
	for _, d := range msg.deltas {
		del := srv.ix.ApplyUpdate(int(d.p), int(d.v), d.id)
		if del.NoOp {
			noops++
		} else {
			applied++
		}
	}
	updates := len(msg.deltas)
	select {
	case srv.freeCh <- msg.deltas[:0]:
	default:
	}
	// A batch of pure re-announcements leaves every cell, and so the
	// partition, as it was: the published view stays current.
	if applied > 0 {
		epoch++
		part, remap2 := srv.ix.Partition(remap)
		remap = remap2
		srv.view.Store(&view{epoch: epoch, part: part})
	}
	srv.applied.Add(1)

	srv.mu.Lock()
	msg.src.Elems += msg.elems
	msg.src.Updates += updates
	msg.src.Applied += applied
	msg.src.NoOps += noops
	msg.src.Skipped += msg.skipped
	srv.mu.Unlock()

	srv.m.batches.Inc()
	srv.m.elems.Add(int64(msg.elems))
	srv.m.applied.Add(int64(applied))
	srv.m.noops.Add(int64(noops))
	srv.m.epoch.Set(int64(epoch))
	srv.m.lag.Set(int64(srv.enqueued.Load() - srv.applied.Load()))
	return epoch, remap
}

// command sends one command to the apply loop and waits for its
// answer. ok=false means the loop has already exited (shutdown drained
// it): the index is quiescent and the caller may read it directly. The
// inner select closes the race where the loop exits between the send
// landing in the buffered channel and the reply — without it a
// post-shutdown command could sit in applyCh with no consumer forever.
func (srv *Server) command(msg applyMsg) (applyReply, bool) {
	select {
	case srv.applyCh <- msg:
		select {
		case r := <-msg.reply:
			return r, true
		case <-srv.applyDone:
			return applyReply{}, false
		}
	case <-srv.applyDone:
		return applyReply{}, false
	}
}

// barrier blocks until every delta batch enqueued before the call has
// been applied (FIFO channel + single consumer). Sessions use it so a
// drained ack really means "applied", and tests use MaterializeAtoms
// (which is a barrier plus a materialization) the same way. After
// shutdown the loop has drained everything, which is the same
// guarantee.
func (srv *Server) barrier() {
	reply := make(chan applyReply, 1)
	srv.command(applyMsg{reply: reply})
}

// MaterializeAtoms builds the full AtomSet for everything applied so
// far — atom IDs, member lists, vectors, origins — exactly the batch
// ComputeAtoms output for the current matrix. Callable during live
// ingest (it runs at a quiesce point inside the apply loop) and after
// Shutdown (the index is then quiescent and accessed directly).
func (srv *Server) MaterializeAtoms(workers int) *core.AtomSet {
	if workers <= 0 {
		workers = srv.cfg.Workers
	}
	if workers <= 0 {
		workers = 1
	}
	reply := make(chan applyReply, 1)
	if r, ok := srv.command(applyMsg{reply: reply, workers: workers, materialize: true}); ok {
		return r.atoms
	}
	return srv.ix.Materialize(workers)
}

// DeltaStats returns the index's cumulative delta counters at a
// quiesce point.
func (srv *Server) DeltaStats() core.DeltaStats {
	reply := make(chan applyReply, 1)
	if r, ok := srv.command(applyMsg{reply: reply}); ok {
		return r.stats
	}
	return srv.ix.Stats()
}

// obsStart begins a query-latency observation (zero cost when metrics
// are off).
func (srv *Server) obsStart() time.Time {
	if srv.cfg.Metrics == nil {
		return time.Time{}
	}
	return time.Now()
}

// obsQuery records one query's latency into its per-op histogram.
func (srv *Server) obsQuery(op string, start time.Time) {
	if srv.cfg.Metrics == nil {
		return
	}
	srv.m.queryNs[op].Observe(time.Since(start).Nanoseconds())
}

// Shutdown drains the daemon: stop accepting, close every live
// connection (sessions decode what already arrived, then finish), join
// every goroutine, and let the apply loop consume the queue and exit.
// When Shutdown returns no daemon goroutine remains and the index
// holds exactly the updates decoded from accepted bytes — the state a
// restarted daemon converges from. Idempotent.
func (srv *Server) Shutdown() error {
	srv.closeOnce.Do(func() {
		srv.mu.Lock()
		srv.closing = true
		conns := make([]net.Conn, 0, len(srv.conns))
		for c := range srv.conns {
			conns = append(conns, c)
		}
		srv.mu.Unlock()
		srv.closeErr = srv.ingestLn.Close()
		if err := srv.queryLn.Close(); srv.closeErr == nil {
			srv.closeErr = err
		}
		for _, c := range conns {
			c.Close()
		}
		srv.wg.Wait()
		close(srv.applyQuit)
		<-srv.applyDone
	})
	return srv.closeErr
}

// Close is Shutdown under the conventional name.
func (srv *Server) Close() error { return srv.Shutdown() }
