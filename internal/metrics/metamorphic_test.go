package metrics_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/aspath"
	"repro/internal/core"
	"repro/internal/longitudinal"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// The analyses read a snapshot's VP columns as an unordered set and its
// path IDs as opaque equality tokens. These metamorphic tests hold them
// to it: permuting the VP columns or relabeling every path ID must leave
// the atom partition, CAM/MPM and the formation distances unchanged.

// eraSnapshots builds two snapshots of one era, 8 hours apart, through
// the longitudinal fast path.
func eraSnapshots(t *testing.T) (a, b *core.Snapshot) {
	t.Helper()
	cfg := longitudinal.DefaultConfig(5)
	cfg.Scale = 0.004
	cfg.Workers = 1
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2016, 1))
	as1, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		t.Fatal(err)
	}
	as2, _, err := r.SnapshotAt(longitudinal.OffsetBase + longitudinal.Offset8h)
	if err != nil {
		t.Fatal(err)
	}
	if len(as1.Snap.VPs) < 8 || len(as1.Atoms) < 100 {
		t.Fatalf("snapshot too small to exercise anything: %d VPs, %d atoms", len(as1.Snap.VPs), len(as1.Atoms))
	}
	return as1.Snap, as2.Snap
}

// permuteVPs returns s with its VP columns in the order perm (new column
// i is old column perm[i]), sharing s's intern table.
func permuteVPs(s *core.Snapshot, perm []int) *core.Snapshot {
	vps := make([]core.VP, len(perm))
	for i, v := range perm {
		vps[i] = s.VPs[v]
	}
	out := core.NewSnapshotWith(s.Time, vps, s.Prefixes, s.Paths)
	for p := range s.Prefixes {
		src, dst := s.Row(p), out.Row(p)
		for i, v := range perm {
			dst[i] = src[v]
		}
	}
	return out
}

// relabel returns s over a fresh intern table seeded with s's paths in
// reverse ID order, so every non-empty path gets a different ID.
func relabel(s *core.Snapshot, fresh *aspath.Table) *core.Snapshot {
	for id := s.Paths.Len() - 1; id > 0; id-- {
		fresh.Intern(s.Paths.Seq(aspath.ID(id)))
	}
	out := core.NewSnapshotWith(s.Time, s.VPs, s.Prefixes, fresh)
	for p := range s.Prefixes {
		for v := range s.VPs {
			out.SetRoute(p, v, s.Route(p, v))
		}
	}
	return out
}

// partition renders an atom set's partition as sorted prefix sets.
func partition(as *core.AtomSet) []string {
	out := make([]string, len(as.Atoms))
	for i := range as.Atoms {
		var b strings.Builder
		for _, pfx := range as.PrefixSet(i) {
			b.WriteString(pfx.String())
			b.WriteByte(' ')
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// analyses is everything the metamorphic relations must preserve.
type analyses struct {
	partition1, partition2 []string
	stability              metrics.Stability
	formation              *metrics.FormationResult
}

func analyze(a, b *core.Snapshot) analyses {
	as1 := core.ComputeAtoms(a, nil, 1)
	as2 := core.ComputeAtoms(b, nil, 1)
	return analyses{
		partition1: partition(as1),
		partition2: partition(as2),
		stability:  metrics.CompareStability(as1, as2, nil),
		formation:  metrics.FormationDistances(as1, metrics.DefaultFormationOptions(), nil),
	}
}

func sameAnalyses(t *testing.T, what string, got, want analyses) {
	t.Helper()
	if !slices.Equal(got.partition1, want.partition1) || !slices.Equal(got.partition2, want.partition2) {
		t.Errorf("%s: atom partition changed", what)
	}
	if got.stability != want.stability {
		t.Errorf("%s: stability %+v, want %+v", what, got.stability, want.stability)
	}
	if !reflect.DeepEqual(got.formation, want.formation) {
		t.Errorf("%s: formation distances %+v, want %+v", what, got.formation, want.formation)
	}
}

func TestAnalysesInvariantUnderVPPermutation(t *testing.T) {
	a, b := eraSnapshots(t)
	want := analyze(a, b)
	n := len(a.VPs)
	reversed := make([]int, n)
	rotated := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
		rotated[i] = (i + n/3) % n
	}
	for name, perm := range map[string][]int{"reversed": reversed, "rotated": rotated} {
		sameAnalyses(t, name, analyze(permuteVPs(a, perm), permuteVPs(b, perm)), want)
	}
}

func TestAnalysesInvariantUnderPathRelabeling(t *testing.T) {
	a, b := eraSnapshots(t)
	want := analyze(a, b)
	// Both snapshots share one era table, so they share one relabeled
	// table too: ID equality across them must keep meaning path equality.
	fresh := aspath.NewTable()
	ra, rb := relabel(a, fresh), relabel(b, fresh)
	moved := 0
	for p := range a.Prefixes {
		for v := range a.VPs {
			if a.RouteID(p, v) != ra.RouteID(p, v) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("relabeling kept every ID; the relation tests nothing")
	}
	sameAnalyses(t, "relabeled", analyze(ra, rb), want)
}
