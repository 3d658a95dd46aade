package routing

import (
	"math"
	"net/netip"
	"slices"

	"repro/internal/topology"
)

// ChurnModel is a deterministic event process that perturbs routing
// policies over continuous time (measured in days since the snapshot
// epoch). Each unit and each vantage point has its own event clock —
// evenly spaced events with a random phase and a heavy-tailed per-entity
// rate — so any two instants map to overlays whose differences are
// exactly the events between them. This is what stability (CAM/MPM),
// split-observer, and update-correlation analyses consume.
type ChurnModel struct {
	Seed uint64
	// UnitEventRate is the mean policy-event rate per unit per day.
	UnitEventRate float64
	// TransitFlipShare is the share of unit events that are transit
	// export flips (localized) rather than origin announce changes.
	TransitFlipShare float64
	// VPEventRate is the mean local-preference event rate per vantage
	// point per day. Per-VP rates are heavy-tailed: a few flappy VPs
	// dominate, reproducing the paper's single-VP split concentration.
	VPEventRate float64
	// PrefixMobileShare is the share of prefixes that are "mobile":
	// their TE assignment toggles between sibling groups on a daily
	// cadence. The remainder move only at PrefixBaseMoveRate. This
	// bimodal process reproduces the paper's fast-then-flat stability
	// decay: atoms that survive 8 hours mostly survive the week.
	PrefixMobileShare float64
	// PrefixBaseMoveRate is the background reassignment rate
	// (events/day) for non-mobile prefixes.
	PrefixBaseMoveRate float64
	// VPShiftShare is the fraction of carried prefixes a VP re-routes
	// to its runner-up path after a local-preference event — the source
	// of single-VP-visible atom splits.
	VPShiftShare float64
	// RefreshRate is the per-signature rate (events/day) of attribute
	// refreshes: the origin re-announces a whole policy group with
	// unchanged AS paths (MED/community tweaks, session maintenance).
	// Refreshes never alter snapshots or stability — they only produce
	// the atom-sized UPDATE batches that dominate real update streams
	// and drive the Fig 3 correlation.
	RefreshRate float64
}

// RefreshVersion counts attribute-refresh events for a unit's signature
// before time t.
func (m ChurnModel) RefreshVersion(u *topology.PolicyGroup, t float64) int {
	rate := m.refreshRate(u.SigID)
	return version(rate, t, m.Seed, 0xc4fa, uint64(u.SigID))
}

// RefreshEventTime returns the time of the k-th refresh (k ≥ 1).
func (m ChurnModel) RefreshEventTime(u *topology.PolicyGroup, k int) float64 {
	rate := m.refreshRate(u.SigID)
	if rate <= 0 {
		return math.Inf(1)
	}
	phase := unitf(m.Seed, 0xc4fa, uint64(u.SigID))
	return (float64(k) - phase) / rate
}

func (m ChurnModel) refreshRate(sigID int) float64 {
	u := unitf(m.Seed, 0xc4fb, uint64(sigID))
	return m.RefreshRate * 3 * u * u
}

// unitRate returns the per-signature event rate (heavy-tailed around
// the mean). Events are keyed by policy signature, not unit ID: groups
// configured identically change together.
func (m ChurnModel) unitRate(sigID int) float64 {
	u := unitf(m.Seed, 0xc4e1, uint64(sigID))
	// Quadratic tilt: mean 1, most units below, a few hot ones.
	return m.UnitEventRate * 3 * u * u
}

// vpRate returns the per-VP event rate. The tail is much heavier than
// for units: rate ∝ u^6 keeps most VPs nearly silent while one or two
// flap constantly.
func (m ChurnModel) vpRate(vp uint32) float64 {
	u := unitf(m.Seed, 0xc4e2, uint64(vp))
	return m.VPEventRate * 7 * math.Pow(u, 6)
}

// version counts events before time t for an entity with the given rate
// and phase label.
func version(rate, t float64, seed uint64, labels ...uint64) int {
	if rate <= 0 || t <= 0 {
		return 0
	}
	// Stack-backed key: append([]uint64{seed}, ...) would grow through
	// the heap on every call, and this runs per unit per VP per frame.
	var key [4]uint64
	k := append(key[:0], seed)
	k = append(k, labels...)
	phase := unitf(k...)
	v := int(rate*t + phase)
	if v < 0 {
		return 0
	}
	return v
}

// UnitVersion returns the policy version of a unit at time t (days).
// Versions advance per policy signature: sibling groups with identical
// configured policy share a clock.
func (m ChurnModel) UnitVersion(u *topology.PolicyGroup, t float64) int {
	return version(m.unitRate(u.SigID), t, m.Seed, 0xc4e3, uint64(u.SigID))
}

// UnitEventTime returns the time (days) of a unit's k-th event (k ≥ 1),
// the inverse of UnitVersion.
func (m ChurnModel) UnitEventTime(u *topology.PolicyGroup, k int) float64 {
	rate := m.unitRate(u.SigID)
	if rate <= 0 {
		return math.Inf(1)
	}
	phase := unitf(m.Seed, 0xc4e3, uint64(u.SigID))
	return (float64(k) - phase) / rate
}

// VPVersion returns the local-pref version of a VP at time t.
func (m ChurnModel) VPVersion(vp uint32, t float64) int {
	return version(m.vpRate(vp), t, m.Seed, 0xc4e4, uint64(vp))
}

// VPEventTime returns the time (days) of a VP's k-th event (k ≥ 1).
func (m ChurnModel) VPEventTime(vp uint32, k int) float64 {
	rate := m.vpRate(vp)
	if rate <= 0 {
		return math.Inf(1)
	}
	phase := unitf(m.Seed, 0xc4e4, uint64(vp))
	return (float64(k) - phase) / rate
}

// VPSaltAt returns the tie-break salt of a VP at version v (0 = none).
func (m ChurnModel) VPSaltAt(vp uint32, v int) uint64 {
	if v <= 0 {
		return 0
	}
	return hh(m.Seed, 0xc4e5, uint64(vp), uint64(v))
}

// ApplyUnitVersion mutates ov to reflect unit u at policy version v,
// removing any effect of version vPrev first. Versions are absolute:
// the overlay for a unit always reflects exactly one version's mutation
// (matching OverlayAt's semantics).
func (m ChurnModel) ApplyUnitVersion(g *topology.Graph, ov *Overlay, u *topology.PolicyGroup, vPrev, v int) {
	if vPrev > 0 {
		m.clearUnitVersion(g, ov, u, vPrev)
	}
	if v > 0 {
		m.applyUnitEvent(g, ov, u, v)
	}
}

// clearUnitVersion removes the mutation that version v installed. The
// unit's flip is deleted only if it is still the one v installed.
func (m ChurnModel) clearUnitVersion(g *topology.Graph, ov *Overlay, u *topology.PolicyGroup, v int) {
	kind := unitf(m.Seed, 0xc4e6, uint64(u.SigID), uint64(v))
	if kind < m.TransitFlipShare {
		if key, ok := m.flipKey(g, u, v); ok {
			if cur, ok := ov.ExportFlip[u.ID]; ok && cur == key {
				delete(ov.ExportFlip, u.ID)
			}
		}
		return
	}
	delete(ov.AnnounceOverride, u.ID)
}

// flipKey recomputes the export-flip key version v would install.
func (m ChurnModel) flipKey(g *topology.Graph, u *topology.PolicyGroup, v int) (ExportKey, bool) {
	origin := g.AS(u.Origin)
	if origin == nil || len(origin.Providers) == 0 {
		return ExportKey{}, false
	}
	p := origin.Providers[pickn(len(origin.Providers), m.Seed, 0xc4e7, uint64(u.SigID), uint64(v))]
	tr := g.AS(p)
	if tr == nil {
		return ExportKey{}, false
	}
	neighbors := make([]uint32, 0, len(tr.Providers)+len(tr.Peers))
	neighbors = append(neighbors, tr.Providers...)
	neighbors = append(neighbors, tr.Peers...)
	if len(neighbors) == 0 {
		return ExportKey{}, false
	}
	n := neighbors[pickn(len(neighbors), m.Seed, 0xc4e8, uint64(u.SigID), uint64(v))]
	return ExportKey{ASN: tr.ASN, Neighbor: n}, true
}

// OverlayAt materializes the overlay for time t: for every unit with a
// nonzero version, one mutation keyed by (unit, version); for every VP
// with a nonzero version, a tie-break salt; for every moved prefix, its
// current destination group.
func (m ChurnModel) OverlayAt(g *topology.Graph, t float64, vps []uint32) *Overlay {
	ov := &Overlay{
		AnnounceOverride: make(map[int]map[uint32]topology.AnnouncePolicy),
		ExportFlip:       make(map[int]ExportKey),
		VPSalt:           make(map[uint32]uint64),
		VPShift:          make(map[uint32]uint64),
		VPSticky:         make(map[uint32]uint64),
		PrefixMoves:      make(map[netip.Prefix]int),
	}
	for _, u := range g.Groups {
		v := m.UnitVersion(u, t)
		if v == 0 {
			continue
		}
		m.applyUnitEvent(g, ov, u, v)
	}
	for _, vp := range vps {
		v := m.VPVersion(vp, t)
		if v == 0 {
			continue
		}
		ov.VPSalt[vp] = hh(m.Seed, 0xc4e5, uint64(vp), uint64(v))
		ov.VPShift[vp] = hh(m.Seed, 0xc4f5, uint64(vp), uint64(v))
		ov.VPSticky[vp] = hh(m.Seed, 0xc4f6, uint64(vp))
	}
	ov.VPShiftShare = m.VPShiftShare
	m.applyPrefixMoves(g, ov, t)
	return ov
}

// PrefixMoveVersion returns the reassignment version of one prefix
// (identified by unit + position) at time t.
func (m ChurnModel) PrefixMoveVersion(unitID, prefixIdx int, t float64) int {
	rate := m.prefixMoveRate(unitID, prefixIdx)
	return version(rate, t, m.Seed, 0xc4f0, uint64(unitID), uint64(prefixIdx))
}

// PrefixMoveTime returns the time of the k-th reassignment event.
func (m ChurnModel) PrefixMoveTime(unitID, prefixIdx, k int) float64 {
	rate := m.prefixMoveRate(unitID, prefixIdx)
	if rate <= 0 {
		return math.Inf(1)
	}
	phase := unitf(m.Seed, 0xc4f0, uint64(unitID), uint64(prefixIdx))
	return (float64(k) - phase) / rate
}

func (m ChurnModel) prefixMoveRate(unitID, prefixIdx int) float64 {
	u := unitf(m.Seed, 0xc4f1, uint64(unitID), uint64(prefixIdx))
	if u < m.PrefixMobileShare {
		// Mobile: toggles one to three times a day; the spread in rates
		// decorrelates toggle parity across snapshot offsets.
		return 1.0 + 2.0*unitf(m.Seed, 0xc4f7, uint64(unitID), uint64(prefixIdx))
	}
	return m.PrefixBaseMoveRate
}

// MoveTarget returns the destination unit for a prefix's version-v
// reassignment (its home unit when v is even-dispersed back, or no
// move). ok=false means the prefix stays home at this version.
func (m ChurnModel) MoveTarget(g *topology.Graph, u *topology.PolicyGroup, prefixIdx, v int) (int, bool) {
	if v == 0 {
		return 0, false
	}
	origin := g.AS(u.Origin)
	if origin == nil {
		return 0, false
	}
	// Candidate sibling groups of the same family. Groups with the same
	// announce policy are strongly preferred: a TE tweak reassigns a
	// prefix to the most similar policy bucket, so the resulting atom
	// split is visible only where transit-level policy differs — the
	// paper's observation that most splits are localized to few VPs.
	var similar, other []int
	for _, grp := range origin.Groups {
		if grp.ID == u.ID || grp.V6 != u.V6 {
			continue
		}
		if sameAnnounce(u, grp) {
			similar = append(similar, grp.ID)
		} else {
			other = append(other, grp.ID)
		}
	}
	siblings := similar
	if len(siblings) == 0 || (len(other) > 0 && unitf(m.Seed, 0xc4f3, uint64(u.ID), uint64(prefixIdx), uint64(v)) < 0.08) {
		siblings = other
	}
	if len(siblings) == 0 {
		return 0, false
	}
	// Every other version returns the prefix home, so moves both split
	// and re-merge atoms over time.
	if v%2 == 0 {
		return 0, false
	}
	return siblings[pickn(len(siblings), m.Seed, 0xc4f2, uint64(u.ID), uint64(prefixIdx), uint64(v))], true
}

// sameAnnounce reports whether two groups share the exact announce policy.
func sameAnnounce(a, b *topology.PolicyGroup) bool {
	if len(a.Announce) != len(b.Announce) {
		return false
	}
	for n, pa := range a.Announce {
		if pb, ok := b.Announce[n]; !ok || pa != pb {
			return false
		}
	}
	return true
}

// applyPrefixMoves fills ov.PrefixMoves for time t.
func (m ChurnModel) applyPrefixMoves(g *topology.Graph, ov *Overlay, t float64) {
	if m.PrefixMobileShare <= 0 && m.PrefixBaseMoveRate <= 0 {
		return
	}
	for _, u := range g.Groups {
		for pi, pfx := range u.Prefixes {
			v := m.PrefixMoveVersion(u.ID, pi, t)
			if v == 0 {
				continue
			}
			if target, ok := m.MoveTarget(g, u, pi, v); ok {
				ov.PrefixMoves[pfx] = target
			}
		}
	}
}

// applyUnitEvent installs the mutation for a unit at version v. The
// mutation is a pure function of (seed, unit, v): re-deriving the
// overlay at any time with the same version yields the same policy, so
// policies change exactly when versions do.
func (m ChurnModel) applyUnitEvent(g *topology.Graph, ov *Overlay, u *topology.PolicyGroup, v int) {
	kind := unitf(m.Seed, 0xc4e6, uint64(u.SigID), uint64(v))
	if kind < m.TransitFlipShare {
		// Transit flip: invert one transit's export decision for this
		// unit toward one of its neighbors. The transit is drawn from
		// the origin's providers, so the flip lands on the unit's actual
		// path region; a flip that touches no selected path is a no-op.
		if key, ok := m.flipKey(g, u, v); ok {
			ov.ExportFlip[u.ID] = key
		}
		return
	}
	// Origin announce change: re-derive the announce set with a version-
	// dependent variation — toggle prepending on one neighbor or drop /
	// restore one provider.
	origin := g.AS(u.Origin)
	if origin == nil {
		return
	}
	base := u.Announce
	na := make(map[uint32]topology.AnnouncePolicy, len(base))
	for k, p := range base {
		na[k] = p
	}
	sub := unitf(m.Seed, 0xc4e9, uint64(u.SigID), uint64(v))
	switch {
	case sub < 0.5 && len(na) > 0:
		// Toggle prepend on one announced neighbor.
		keys := sortedKeys(na)
		k := keys[pickn(len(keys), m.Seed, 0xc4ea, uint64(u.SigID), uint64(v))]
		pol := na[k]
		if pol.Prepend > 0 {
			pol.Prepend = 0
		} else {
			pol.Prepend = 1 + pickn(2, m.Seed, 0xc4eb, uint64(u.SigID), uint64(v))
		}
		na[k] = pol
	case len(na) > 1:
		// Drop one announced neighbor (but never the last).
		keys := sortedKeys(na)
		k := keys[pickn(len(keys), m.Seed, 0xc4ec, uint64(u.SigID), uint64(v))]
		delete(na, k)
	default:
		// Restore a provider not currently announced.
		for _, p := range origin.Providers {
			if _, ok := na[p]; !ok {
				na[p] = topology.AnnouncePolicy{}
				break
			}
		}
	}
	ov.AnnounceOverride[u.ID] = na
}

func sortedKeys(m map[uint32]topology.AnnouncePolicy) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Local hash helpers (mirrors topology's label-addressed randomness).
func hh(vals ...uint64) uint64 {
	acc := uint64(0x2545f4914f6cdd1d)
	for _, v := range vals {
		acc = mixc(acc ^ v)
	}
	return acc
}

func mixc(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unitf(vals ...uint64) float64 {
	return float64(hh(vals...)>>11) / float64(1<<53)
}

func pickn(n int, vals ...uint64) int {
	if n <= 0 {
		return 0
	}
	return int(hh(vals...) % uint64(n))
}
