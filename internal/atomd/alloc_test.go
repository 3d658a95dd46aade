//go:build !race

// The query hot path — view.Load plus flat-array indexing — must not
// allocate, even while a live ingest session is mid-stream. Race
// instrumentation allocates, so the pin runs only in the non-race
// pass.
package atomd

import (
	"testing"

	"repro/internal/faultgen/harness"
)

func TestQueryPathZeroAlloc(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(61))
	srv := newTestServer(t, w.Ribs, 1)
	n := srv.PrefixCount()
	if n < 2 {
		t.Fatal("universe too small")
	}

	// A live but idle session: the hot path must stay clean with ingest
	// state resident, not just on a quiescent server.
	c, err := Dial(srv.Addr(), "rrc00")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(w.Upds["rrc00"][:recordCut(w.Upds["rrc00"], 4096)]); err != nil {
		t.Fatal(err)
	}

	var sink int
	got := testing.AllocsPerRun(1000, func() {
		if srv.SameAtom(0, n-1) {
			sink++
		}
		sink += srv.MemberCount(0)
		sink += int(srv.PrefixAtom(n - 1))
		sink += int(srv.Epoch())
		sink += srv.AtomCount()
		sink += srv.PrefixCount()
		// Out-of-range rows take the bounds-check branch; it must be
		// just as clean.
		if srv.SameAtom(-1, n) {
			sink++
		}
		sink += srv.MemberCount(1 << 30)
		sink += int(srv.PrefixAtom(-7))
	})
	if got != 0 {
		t.Errorf("query hot path allocates %.1f per run, want 0", got)
	}
	_ = sink
}
