package aspath

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ID is an interned path identifier. ID 0 is reserved for the empty path
// (a prefix not observed at a vantage point).
type ID uint32

// Empty is the ID of the empty path.
const Empty ID = 0

// numShards stripes the intern index so concurrent snapshot-build
// workers don't serialize on one lock. Must be a power of two.
const numShards = 64

// tableShard is one stripe of the sequence→ID index: an open-addressed,
// linearly probed []uint64 whose slots pack the upper 32 bits of the
// sequence's hash (the tag, whose low bits also pick the home slot)
// over its ID. A zero slot is empty; ID 0 (the empty path) is never
// stored.
type tableShard struct {
	mu    sync.RWMutex
	slots []uint64
	n     int
}

// Table interns AS-path sequences, mapping each distinct sequence to a
// dense ID. It is the backbone of the snapshot model: per-prefix per-VP
// routes are stored as IDs, and atom grouping hashes ID vectors instead
// of path contents.
//
// A Table is safe for concurrent use and built for it: the sequence→ID
// index is striped across numShards locks (an Intern of an already-known
// path only takes one shard's read lock), and the ID→sequence side is
// an append-only slice published through an atomic pointer, so Seq,
// Origin and Len never lock at all. IDs are handed out in first-seen
// order and never depend on the hash seed; when several goroutines
// intern new paths at once the order depends on interleaving, so
// callers must treat IDs as opaque within one table (the pipeline's
// outputs never depend on raw ID values, only on ID equality, which
// interning guarantees).
type Table struct {
	// seed keys the index hash per table, so no input can steer every
	// table's probe sequences.
	seed   maphash.Seed
	shards [numShards]tableShard
	seqMu  sync.Mutex            // serializes appends to the seqs slice
	seqs   atomic.Pointer[[]Seq] // index = ID; (*seqs)[0] is nil (the empty path)
	// arena backs the stored copies of interned sequences in chunked
	// blocks (guarded by seqMu), so a table ingesting k distinct paths
	// costs ~k/thousands block allocations instead of k Clones.
	arena []uint32
}

// NewTable returns an empty table containing only the empty path. The
// shards allocate their slots on first insert.
func NewTable() *Table {
	t := &Table{seed: maphash.MakeSeed()}
	seqs := make([]Seq, 1, 1024)
	t.seqs.Store(&seqs)
	return t
}

// locate hashes seq's words in place and returns its shard and tag.
func (t *Table) locate(seq Seq) (*tableShard, uint64) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(seq))), len(seq)*4)
	h := maphash.Bytes(t.seed, b)
	return &t.shards[h&(numShards-1)], h >> 32
}

// find probes sh for seq (called under sh.mu), comparing tag matches
// against the table's stored sequences. It returns the ID, or Empty and
// the empty slot where seq belongs.
func (t *Table) find(sh *tableShard, seq Seq, tag uint64) (ID, int) {
	if len(sh.slots) == 0 {
		return Empty, -1
	}
	seqs := *t.seqs.Load()
	mask := uint64(len(sh.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		v := sh.slots[i]
		if v == 0 {
			return Empty, int(i)
		}
		if v>>32 == tag && seqs[uint32(v)].Equal(seq) {
			return ID(uint32(v)), -1
		}
	}
}

// Intern returns the ID for seq, allocating one if it is new. The empty
// sequence always maps to Empty. The table stores its own copy; callers
// may reuse seq's backing array.
//
// The hit path — an already-interned sequence, the overwhelmingly
// common case once a table warms up — hashes the words in place and
// probes under one shard's read lock, so it never allocates
// (TestInternHitPathAllocs locks this in).
func (t *Table) Intern(seq Seq) ID {
	if len(seq) == 0 {
		return Empty
	}
	sh, tag := t.locate(seq)
	sh.mu.RLock()
	id, _ := t.find(sh, seq, tag)
	sh.mu.RUnlock()
	if id != Empty {
		return id
	}
	return t.internSlow(sh, seq, tag)
}

// internSlow is Intern's miss path: take the write lock, re-probe, and
// allocate the next dense ID, doubling the shard's slots past 3/4 load.
func (t *Table) internSlow(sh *tableShard, seq Seq, tag uint64) ID {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if 4*(sh.n+1) > 3*len(sh.slots) {
		sh.grow()
	}
	id, slot := t.find(sh, seq, tag)
	if id != Empty {
		return id
	}
	// Appending in place is safe for the lock-free readers: a reader
	// holding the old slice header never indexes past its own length,
	// and the new header is published atomically only after the element
	// is written.
	t.seqMu.Lock()
	cur := *t.seqs.Load()
	id = ID(len(cur))
	next := append(cur, t.store(seq))
	t.seqs.Store(&next)
	t.seqMu.Unlock()
	sh.slots[slot] = tag<<32 | uint64(id)
	sh.n++
	return id
}

// grow doubles the shard's slots (16 to start), re-placing each entry
// by its stored tag: no sequence is re-hashed.
func (sh *tableShard) grow() {
	old := sh.slots
	sh.slots = make([]uint64, max(16, 2*len(old)))
	mask := uint64(len(sh.slots) - 1)
	for _, v := range old {
		if v != 0 {
			i := (v >> 32) & mask
			for sh.slots[i] != 0 {
				i = (i + 1) & mask
			}
			sh.slots[i] = v
		}
	}
}

// seqArenaBlock sizes the arena blocks backing stored sequences.
const seqArenaBlock = 1 << 14

// store copies seq into the table-owned arena (called under seqMu).
// The returned slice is capacity-capped so later appends cannot bleed
// into the next stored sequence.
func (t *Table) store(seq Seq) Seq {
	n := len(seq)
	if n > seqArenaBlock {
		return seq.Clone()
	}
	if cap(t.arena)-len(t.arena) < n {
		t.arena = make([]uint32, 0, seqArenaBlock)
	}
	off := len(t.arena)
	t.arena = append(t.arena, seq...)
	return t.arena[off : off+n : off+n]
}

// Seq returns the sequence for id. The returned slice is owned by the
// table and must not be mutated. Seq(Empty) returns nil. Lock-free.
func (t *Table) Seq(id ID) Seq {
	seqs := *t.seqs.Load()
	if int(id) >= len(seqs) {
		return nil
	}
	return seqs[id]
}

// Len returns the number of interned paths, including the empty path.
// Lock-free.
func (t *Table) Len() int {
	return len(*t.seqs.Load())
}

// Origin returns the origin AS of the path with the given id, and false
// for the empty path or an unknown id.
func (t *Table) Origin(id ID) (uint32, bool) {
	return t.Seq(id).Origin()
}
