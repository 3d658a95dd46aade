// Ingest session glue: one goroutine reads frames off the conn and
// runs the wire state machine; a second, started at hello, decodes the
// reassembled payload stream. The decoder is a sequential
// bgpstream.Stream over an io.Pipe carrying exactly the accepted
// payload bytes — i.e. the batch decode path over the same bytes, with
// the same record Resync, warning, and degradation-quarantine
// machinery. Record-level damage therefore behaves identically to
// batch replay (the differential over faultgen-damaged streams holds
// by construction); only frame-level damage is handled here, by the
// parser's bounded magic scan and the wire quarantine.
package atomd

import (
	"io"
	"net"
	"sync"

	"repro/internal/bgpstream"
	"repro/internal/obs"
	"repro/internal/replay"
)

// session is one live ingest connection. It borrows the server for the
// duration of each call (the server outlives and tears down every
// session, not the other way around), so methods take srv explicitly
// rather than owning a reference.
type session struct {
	conn net.Conn

	st         ingestState
	src        *SourceStats
	pw         *io.PipeWriter
	decodeDone chan struct{}
	// colMu is the per-collector session lock, held from hello until
	// the decode goroutine has joined (released in run's defer chain).
	colMu *sync.Mutex
	// bytesC is the per-source byte counter, created at hello when the
	// collector name arrives (nil no-ops when metrics are off).
	bytesC *obs.Counter
}

// run reads and handles frames until the connection ends (client
// close, quarantine, EOF drain, or server shutdown). On every exit
// path the decode pipe is closed and the decode goroutine joined, so
// Shutdown's wg.Wait really joins everything.
func (s *session) run(srv *Server) {
	defer s.conn.Close()
	defer func() {
		// Runs after the decode-join defer below: the collector slot
		// frees only once this session's deltas are all enqueued.
		if s.colMu != nil {
			s.colMu.Unlock()
		}
	}()
	defer func() {
		if s.pw != nil {
			s.pw.Close()
			<-s.decodeDone
			s.pw = nil
		}
	}()
	srv.m.sessions.Set(int64(srv.sessionGauge(+1)))
	defer func() {
		srv.m.sessions.Set(int64(srv.sessionGauge(-1)))
	}()

	var (
		fp   FrameParser
		rbuf = make([]byte, 64<<10)
		resp []byte
	)
	for {
		n, err := s.conn.Read(rbuf)
		if n > 0 {
			fp.Feed(rbuf[:n])
			for {
				fr, ok, perr := fp.Next()
				if perr != nil {
					// Wire desync: the byte stream has no framing left.
					s.quarantineWire(srv)
					return
				}
				if !ok {
					break
				}
				if done := s.handle(srv, fr, &resp); done {
					return
				}
			}
		}
		if err != nil {
			return // peer closed, or Shutdown closed the conn under us
		}
	}
}

// handle runs one frame through the state machine and performs the
// session-level side effects the pure state machine cannot: starting
// the decoder at hello, draining it at EOF, accounting accepted bytes.
// Returns true when the session is over.
func (s *session) handle(srv *Server, fr Frame, resp *[]byte) bool {
	ackedBefore := s.st.acked
	helloBefore := s.st.helloSeen
	res, err := s.st.handleFrame(fr, s.pw, (*resp)[:0])
	*resp = res.resp
	if err != nil {
		// The decode pipe failed underneath us (decoder aborted): the
		// session cannot make progress.
		srv.addQuarantine("wire:" + s.st.collector + ": decode pipe closed")
		return true
	}
	if !helloBefore && s.st.helloSeen {
		s.start(srv)
	}
	if n := s.st.acked - ackedBefore; n > 0 && helloBefore {
		s.src.addBytes(srv, n)
		s.bytesC.Add(int64(n))
	}
	// resp holds at most one response frame per handled frame; its type
	// byte says whether we just demanded a rewind.
	if len(res.resp) >= 3 && res.resp[2] == FrameNak {
		srv.m.naks.Inc()
	}
	if res.drained {
		// Clean EOF: close the pipe, join the decoder (everything
		// accepted is now enqueued), then barrier so "drained" means
		// applied, not merely queued.
		s.pw.Close()
		<-s.decodeDone
		s.pw = nil
		srv.barrier()
		*resp = s.st.respondDrained(*resp)
	}
	// Ledger before the error frame, as in quarantineWire.
	if res.closed && s.st.quarantined {
		srv.addQuarantine("wire:" + s.quarName() + ": " + s.st.reason)
	}
	if len(*resp) > 0 {
		if _, werr := s.conn.Write(*resp); werr != nil {
			return true
		}
	}
	return res.closed
}

// start opens the decode pipeline once the hello named the collector.
// It first takes the per-collector session lock — blocking until any
// previous incarnation of this collector's session has fully drained —
// so concurrent duplicate sessions serialize instead of racing their
// deltas.
func (s *session) start(srv *Server) {
	s.colMu = srv.collectorLock(s.st.collector)
	//atomlint:ignore locks held across the session's lifetime; run's defer chain unlocks after the decoder joins
	s.colMu.Lock()
	s.src = srv.source(s.st.collector)
	s.bytesC = srv.cfg.Metrics.Counter("atomd.source_bytes", "source", s.st.collector)
	pr, pw := io.Pipe()
	s.pw = pw
	s.decodeDone = make(chan struct{})
	collector := s.st.collector
	src := s.src
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		defer close(s.decodeDone)
		srv.decode(pr, collector, src)
	}()
}

// quarName labels a quarantined session for the ledger: the collector
// when the hello got far enough to name one, the remote address
// otherwise.
func (s *session) quarName() string {
	if s.st.collector != "" {
		return s.st.collector
	}
	return s.conn.RemoteAddr().String()
}

// quarantineWire handles parser desync: record the quarantine, then
// flush a final error frame — in that order, so a peer that has read
// the error frame finds the quarantine in the ledger.
func (s *session) quarantineWire(srv *Server) {
	s.st.quarantined = true
	s.st.reason = ErrDesync.Error()
	srv.addQuarantine("wire:" + s.quarName() + ": frame desync")
	var buf []byte
	buf = AppendFrameFlags(buf, FrameError, 0, s.st.acked, []byte(s.st.reason))
	s.conn.Write(buf)
}

// addBytes accumulates accepted payload bytes under the server lock.
func (st *SourceStats) addBytes(srv *Server, n uint64) {
	srv.mu.Lock()
	st.Bytes += n
	srv.mu.Unlock()
	srv.m.bytes.Add(int64(n))
}

// sessionGauge adjusts and returns the live-session count.
func (srv *Server) sessionGauge(d int) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	srv.sessionCount += d
	return srv.sessionCount
}

// decode runs the batch decode path over the session's reassembled
// payload stream and feeds mapped deltas to the apply loop in
// deltaFlushSize batches. Runs until the payload pipe closes (EOF
// drain or session teardown); source-level degradation quarantines are
// copied into the server ledger at drain, exactly as batch replay
// surfaces them.
func (srv *Server) decode(pr *io.PipeReader, collector string, src *SourceStats) {
	defer pr.Close()
	// The stream borrows the reader; this function owns the pipe's
	// teardown (the deferred Close and CloseWithError below).
	var r io.Reader = pr
	st := bgpstream.NewStream(nil, bgpstream.Source{Collector: collector, R: r})
	st.SetWorkers(1)
	st.SetIntern(srv.snap.Paths)
	if srv.cfg.Metrics != nil {
		st.SetMetrics(srv.cfg.Metrics)
	}
	deltas := srv.getDeltaBuf()
	elems, skipped := 0, 0
	flush := func() {
		if elems == 0 && len(deltas) == 0 {
			return
		}
		srv.enqueue(applyMsg{src: src, deltas: deltas, elems: elems, skipped: skipped})
		deltas = srv.getDeltaBuf()
		elems, skipped = 0, 0
	}
	for {
		batch, err := st.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A reader-source failure (the pipe died mid-record): what
			// decoded so far stands; the rest of the stream is gone.
			pr.CloseWithError(err)
			break
		}
		for i := range batch {
			e := &batch[i]
			elems++
			p, v, id, reason := srv.mapper.Map(e)
			if reason != replay.SkipNone {
				skipped++
				continue
			}
			deltas = append(deltas, delta{p: int32(p), v: int32(v), id: id})
		}
		if len(deltas) >= deltaFlushSize {
			flush()
		}
	}
	flush()
	for _, q := range st.Quarantined() {
		srv.addQuarantine("decode:" + q)
	}
}
