// The HTTP query surface, mounted on the obs.DebugServer mux via
// RegisterHTTP (cli.Obs.ExtraMux plumbs it through -listen):
//
//	/atoms/epoch        current generation, atom and prefix counts
//	/atoms/sameatom     ?p=&q=   do two prefix rows share an atom
//	/atoms/membercount  ?p=      size of a row's atom
//	/atoms/prefix       ?prefix= row, canonical atom, size for a prefix
//	/atoms/snapshot     [?workers=] materialized dump (canonical text)
//	/atoms/ingest       per-source ingest ledger and quarantines
//
// JSON documents are rendered from structs so field order — and
// therefore the golden e2e fixture — is stable.
package atomd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"

	"repro/internal/aspath"
	"repro/internal/core"
)

// RegisterHTTP mounts the /atoms endpoints on mux.
func (srv *Server) RegisterHTTP(mux *http.ServeMux) {
	mux.HandleFunc("/atoms/epoch", srv.handleEpoch)
	mux.HandleFunc("/atoms/sameatom", srv.handleSameAtom)
	mux.HandleFunc("/atoms/membercount", srv.handleMemberCount)
	mux.HandleFunc("/atoms/prefix", srv.handlePrefix)
	mux.HandleFunc("/atoms/snapshot", srv.handleSnapshot)
	mux.HandleFunc("/atoms/ingest", srv.handleIngest)
}

func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// rowParam parses a prefix-row query parameter, replying 400 itself on
// failure.
func rowParam(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	v, err := strconv.Atoi(r.URL.Query().Get(name))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad %q: want a prefix row index", name), http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

func (srv *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	start := srv.obsStart()
	v := srv.view.Load()
	doc := struct {
		Epoch    uint64 `json:"epoch"`
		Atoms    int    `json:"atoms"`
		Prefixes int    `json:"prefixes"`
	}{v.epoch, len(v.part.Counts), len(v.part.ByPrefix)}
	srv.obsQuery("epoch", start)
	writeJSON(w, doc)
}

func (srv *Server) handleSameAtom(w http.ResponseWriter, r *http.Request) {
	p, ok := rowParam(w, r, "p")
	if !ok {
		return
	}
	q, ok := rowParam(w, r, "q")
	if !ok {
		return
	}
	start := srv.obsStart()
	v := srv.view.Load()
	doc := struct {
		Epoch uint64 `json:"epoch"`
		P     int    `json:"p"`
		Q     int    `json:"q"`
		Same  bool   `json:"same"`
	}{v.epoch, p, q, v.sameAtom(p, q)}
	srv.obsQuery("sameatom", start)
	writeJSON(w, doc)
}

func (srv *Server) handleMemberCount(w http.ResponseWriter, r *http.Request) {
	p, ok := rowParam(w, r, "p")
	if !ok {
		return
	}
	start := srv.obsStart()
	v := srv.view.Load()
	doc := struct {
		Epoch uint64 `json:"epoch"`
		P     int    `json:"p"`
		Count int    `json:"count"`
	}{v.epoch, p, v.memberCount(p)}
	srv.obsQuery("membercount", start)
	writeJSON(w, doc)
}

func (srv *Server) handlePrefix(w http.ResponseWriter, r *http.Request) {
	pfx, err := netip.ParsePrefix(r.URL.Query().Get("prefix"))
	if err != nil {
		http.Error(w, "bad \"prefix\": want CIDR notation", http.StatusBadRequest)
		return
	}
	start := srv.obsStart()
	v := srv.view.Load()
	doc := struct {
		Epoch  uint64 `json:"epoch"`
		Prefix string `json:"prefix"`
		Row    int    `json:"row"`
		Atom   int32  `json:"atom"`
		Count  int    `json:"count"`
	}{Epoch: v.epoch, Prefix: pfx.String(), Row: -1, Atom: -1}
	if row, found := srv.mapper.PrefixRow(pfx); found {
		doc.Row = row
		doc.Atom = v.prefixAtom(row)
		doc.Count = v.memberCount(row)
	}
	srv.obsQuery("prefixatom", start)
	writeJSON(w, doc)
}

func (srv *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	workers := srv.cfg.Workers
	if s := r.URL.Query().Get("workers"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad \"workers\"", http.StatusBadRequest)
			return
		}
		workers = n
	}
	start := srv.obsStart()
	as := srv.MaterializeAtoms(workers)
	srv.obsQuery("snapshot", start)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(RenderAtoms(as))
}

func (srv *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	type sourceDoc struct {
		Collector string `json:"collector"`
		Sessions  int    `json:"sessions"`
		Bytes     uint64 `json:"bytes"`
		Elems     int    `json:"elems"`
		Updates   int    `json:"updates"`
		Applied   int    `json:"applied"`
		NoOps     int    `json:"noops"`
		Skipped   int    `json:"skipped"`
	}
	stats := srv.IngestStats()
	doc := struct {
		Sources     []sourceDoc `json:"sources"`
		Quarantined []string    `json:"quarantined"`
	}{Sources: []sourceDoc{}, Quarantined: srv.Quarantined()}
	for _, st := range stats {
		doc.Sources = append(doc.Sources, sourceDoc{
			Collector: st.Collector, Sessions: st.Sessions, Bytes: st.Bytes,
			Elems: st.Elems, Updates: st.Updates, Applied: st.Applied,
			NoOps: st.NoOps, Skipped: st.Skipped,
		})
	}
	if doc.Quarantined == nil {
		doc.Quarantined = []string{}
	}
	writeJSON(w, doc)
}

// RenderAtoms renders an AtomSet as canonical text: one line per atom
// with its size, origin, MOAS flag, member prefixes, and the shared
// vector resolved to AS-path strings. Two AtomSets render identically
// iff they describe the same partition and vectors, independent of
// intern-table ID assignment — the byte-for-byte currency of the
// daemon-vs-batch differential and the golden fixture.
func RenderAtoms(as *core.AtomSet) []byte {
	var out []byte
	out = fmt.Appendf(out, "atoms %d prefixes %d vps %d\n",
		len(as.Atoms), len(as.Snap.Prefixes), len(as.Snap.VPs))
	for i := range as.Atoms {
		a := &as.Atoms[i]
		out = fmt.Appendf(out, "atom %d size %d origin %d moas %v\n", a.ID, a.Size(), a.Origin, a.MOASConflict)
		out = append(out, "  prefixes"...)
		for _, p := range a.Prefixes {
			out = fmt.Appendf(out, " %s", as.Snap.Prefixes[p])
		}
		out = append(out, '\n')
		out = append(out, "  vector"...)
		for _, id := range a.Vector {
			out = append(out, ' ')
			out = appendPath(out, as, id)
		}
		out = append(out, '\n')
	}
	return out
}

// appendPath renders one interned path as dash-joined AS hops ("-" for
// the empty path), resolved through the snapshot's intern table so the
// rendering is ID-assignment-independent.
func appendPath(out []byte, as *core.AtomSet, id aspath.ID) []byte {
	if id == aspath.Empty {
		return append(out, '-')
	}
	seq := as.Snap.Paths.Seq(id)
	for i, hop := range seq {
		if i > 0 {
			out = append(out, '-')
		}
		out = strconv.AppendUint(out, uint64(hop), 10)
	}
	return out
}
