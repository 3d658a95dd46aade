package aspath

import (
	"sync"
	"sync/atomic"
)

// ID is an interned path identifier. ID 0 is reserved for the empty path
// (a prefix not observed at a vantage point).
type ID uint32

// Empty is the ID of the empty path.
const Empty ID = 0

// numShards stripes the intern map so concurrent snapshot-build workers
// don't serialize on one lock. Must be a power of two.
const numShards = 64

type tableShard struct {
	mu  sync.RWMutex
	ids map[string]ID
}

// Table interns AS-path sequences, mapping each distinct sequence to a
// dense ID. It is the backbone of the snapshot model: per-prefix per-VP
// routes are stored as IDs, and atom grouping hashes ID vectors instead
// of path contents.
//
// A Table is safe for concurrent use and built for it: the sequence→ID
// map is striped across numShards locks (an Intern of an already-known
// path only takes one shard's read lock), and the ID→sequence side is
// an append-only slice published through an atomic pointer, so Seq,
// Origin and Len never lock at all. ID values depend on interleaving
// when multiple goroutines intern new paths — callers must treat IDs as
// opaque within one table (the pipeline's outputs never depend on raw
// ID values, only on ID equality, which interning guarantees).
type Table struct {
	shards [numShards]tableShard
	seqMu  sync.Mutex            // serializes appends to the seqs slice
	seqs   atomic.Pointer[[]Seq] // index = ID; (*seqs)[0] is nil (the empty path)
	// arena backs the stored copies of interned sequences in chunked
	// blocks (guarded by seqMu), so a table ingesting k distinct paths
	// costs ~k/thousands block allocations instead of k Clones.
	arena []uint32
}

// NewTable returns an empty table containing only the empty path.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].ids = make(map[string]ID, 32)
	}
	seqs := make([]Seq, 1, 1024)
	t.seqs.Store(&seqs)
	return t
}

// keyStackBytes sizes the on-stack key buffer used by Intern and
// Lookup: paths up to 32 hops (far beyond any sane AS path) encode
// without touching the heap.
const keyStackBytes = 128

// appendKey encodes a sequence onto buf as big-endian uint32s — the
// compact form used as the intern-map key. It only appends, so callers
// pass a stack-backed buf and pay a heap allocation solely for
// pathological >32-hop paths.
func appendKey(buf []byte, s Seq) []byte {
	for _, a := range s {
		buf = append(buf, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return buf
}

// shardOf maps a key to its stripe (FNV-1a over the key bytes).
func shardOf(k []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return h & (numShards - 1)
}

// Intern returns the ID for seq, allocating one if it is new. The empty
// sequence always maps to Empty. The table stores its own copy; callers
// may reuse seq's backing array.
//
// The hit path — an already-interned sequence, the overwhelmingly
// common case once a table warms up — is allocation-free: the key is
// encoded into a stack buffer and the map lookup uses the compiler's
// non-escaping map[string(buf)] form, so only genuinely new sequences
// pay for a key copy (TestInternHitPathAllocs locks this in).
func (t *Table) Intern(seq Seq) ID {
	if len(seq) == 0 {
		return Empty
	}
	var stack [keyStackBytes]byte
	buf := appendKey(stack[:0], seq)
	sh := &t.shards[shardOf(buf)]
	sh.mu.RLock()
	id, ok := sh.ids[string(buf)]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return t.internSlow(sh, buf, seq)
}

// internSlow is Intern's miss path: take the write lock, re-check, and
// allocate the next dense ID. Split out so the hit path stays small
// enough to keep its key buffer on the stack.
func (t *Table) internSlow(sh *tableShard, buf []byte, seq Seq) ID {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.ids[string(buf)]; ok {
		return id
	}
	// Appending in place is safe for the lock-free readers: a reader
	// holding the old slice header never indexes past its own length,
	// and the new header is published atomically only after the element
	// is written.
	t.seqMu.Lock()
	cur := *t.seqs.Load()
	id := ID(len(cur))
	next := append(cur, t.store(seq))
	t.seqs.Store(&next)
	t.seqMu.Unlock()
	sh.ids[string(buf)] = id
	return id
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

// Lookup returns the ID for seq without interning, and false if the
// sequence has not been interned. Allocation-free like Intern's hit
// path.
func (t *Table) Lookup(seq Seq) (ID, bool) {
	if len(seq) == 0 {
		return Empty, true
	}
	var stack [keyStackBytes]byte
	buf := appendKey(stack[:0], seq)
	sh := &t.shards[shardOf(buf)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	id, ok := sh.ids[string(buf)]
	return id, ok
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
