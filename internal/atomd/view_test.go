package atomd

import (
	"fmt"
	"net/url"
	"testing"

	"repro/internal/core"
)

// TestRepliesShareOneGeneration swaps synthetic views in while HTTP and
// binary queries run. Generation e has e atoms, all of its prefix rows
// sit in atom 0, and atom 0 counts e members, so every count and atom
// total equals its generation's epoch. A reply that takes its epoch
// from one view and its payload from another breaks that equality.
func TestRepliesShareOneGeneration(t *testing.T) {
	srv, ts := httpServer(t, 51)
	n := srv.PrefixCount()
	pfx := srv.snap.Prefixes[n-1]

	// A fixed ring of generations: the swapper allocates nothing.
	ring := make([]*view, 64)
	for i := range ring {
		e := uint64(i + 1)
		counts := make([]int32, e)
		counts[0] = int32(e)
		ring[i] = &view{epoch: e, part: &core.Partition{ByPrefix: make([]int32, n), Counts: counts}}
	}
	srv.view.Store(ring[0])
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				srv.view.Store(ring[i%len(ring)])
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	qc, err := DialQuery(srv.QueryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	check := func(what string, epoch uint64, count int) {
		t.Helper()
		if uint64(count) != epoch {
			t.Fatalf("%s: count %d in a reply tagged epoch %d", what, count, epoch)
		}
	}
	prefixURL := ts.URL + "/atoms/prefix?prefix=" + url.QueryEscape(pfx.String())
	for i := 0; i < 200; i++ {
		row := i % n
		var mc struct {
			Epoch uint64 `json:"epoch"`
			Count int    `json:"count"`
		}
		getJSON(t, fmt.Sprintf("%s/atoms/membercount?p=%d", ts.URL, row), &mc)
		check("http membercount", mc.Epoch, mc.Count)

		var pa struct {
			Epoch uint64 `json:"epoch"`
			Row   int    `json:"row"`
			Count int    `json:"count"`
		}
		getJSON(t, prefixURL, &pa)
		if pa.Row != n-1 {
			t.Fatalf("http prefix %s: row %d, want %d", pfx, pa.Row, n-1)
		}
		check("http prefix", pa.Epoch, pa.Count)

		var ep struct {
			Epoch uint64 `json:"epoch"`
			Atoms int    `json:"atoms"`
		}
		getJSON(t, ts.URL+"/atoms/epoch", &ep)
		check("http epoch", ep.Epoch, ep.Atoms)

		count, epoch, err := qc.MemberCount(row)
		if err != nil {
			t.Fatal(err)
		}
		check("binary membercount", epoch, count)

		_, _, count, epoch, err = qc.PrefixAtom(pfx)
		if err != nil {
			t.Fatal(err)
		}
		check("binary prefixatom", epoch, count)

		epoch, atoms, _, err := qc.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		check("binary epoch", epoch, atoms)
	}
}
