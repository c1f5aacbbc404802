package core

import (
	"cmp"
	"slices"
)

// transpo is the search's transposition table: a map from 64-bit PPRM state
// hashes (pprm.Spec.Hash) to the shallowest search depth at which that
// state has been queued or solved. The RMRLS search tree re-derives the
// same expansion along many substitution orders — applying b=b⊕ac then
// c=c⊕ab reaches the same state as the reverse — and without the table
// every rediscovery costs a full child scoring, clone, and queue insert.
//
// The replacement policy is depth-aware: an entry records the *minimum*
// depth seen, a probe at depth ≥ the stored depth is a hit (the duplicate
// is pruned), and a shallower rediscovery misses, superseding the entry
// when it is enqueued. A shallower path to a state can only shorten every
// circuit through it, so pruning the deeper duplicates can never force a
// longer result; the reverse replacement would.
//
// Soundness against "blocked forever" states is maintained by the callers:
// states are recorded when their node is enqueued (or proves to be a
// solution), forgotten again when a queued-but-unexpanded node is pruned
// by the queue/memory caps (forget), and the whole table is dropped on a
// restart (reset) — the restart heuristic exists precisely to re-explore
// from a different first move, so stale "visited" marks from the abandoned
// frontier must not survive it.
//
// Hash collisions (two distinct states sharing all 64 bits) would prune a
// genuinely new state; with m distinct states recorded the probability of
// any collision is ≈ m²/2⁶⁵ — about 10⁻⁸ for the million-entry default
// table — and every reported circuit is verified by simulation regardless.
// TestTranspoForcedCollisions truncates the keys to force collisions and
// checks that they can only prune.
//
// Layout: an open-addressed array of 16-byte slots whose length is a power
// of two. The keys are already splitmix-mixed, so a key's home slot is its
// low bits (h & mask) and a probe walks forward linearly from there until
// it meets the key or an empty slot. Key 0 marks an empty slot, so state
// hash 0 is kept out of band in zero/hasZero. The array doubles when an
// insert would take it past 3/4 load; forget uses backward-shift deletion,
// so the table never holds tombstones and probe chains stay as short as an
// insert-only table's.
type transpo struct {
	slots     []ttSlot
	mask      uint64 // len(slots) − 1
	used      int    // occupied slots (hash 0 not included)
	zero      int32  // depth recorded for hash 0, valid when hasZero
	hasZero   bool
	limit     int // maximum entries; exceeding it clears the table
	hits      int64
	misses    int64
	evictions int64
}

// ttSlot is one table slot; key 0 means empty.
type ttSlot struct {
	key   uint64
	depth int32
}

// ttMinSlots is the initial array length: short searches (most 3-variable
// functions) never grow it.
const ttMinSlots = 64

// ttKeyMask is applied to every key before it touches the table. Tests
// narrow it to force hash collisions; the search never changes it.
var ttKeyMask = ^uint64(0)

// ttEntryBytes approximates the resident cost of one table entry for the
// Options.MaxMemory accounting: a 16-byte slot at up to 3/4 load, with the
// array doubling, is 21–43 bytes per entry. Coarse on purpose, like the node
// estimates (see memOf), and fixed so that MaxMemory pruning and
// PeakQueueBytes do not depend on the table's layout.
const ttEntryBytes = 32

func newTranspo(limit int) *transpo {
	return &transpo{slots: make([]ttSlot, ttMinSlots), mask: ttMinSlots - 1, limit: limit}
}

// len is the number of recorded states.
func (t *transpo) len() int {
	if t.hasZero {
		return t.used + 1
	}
	return t.used
}

// slot returns the index of the slot holding key h (h ≠ 0), or of the
// empty slot that ends its probe chain.
func (t *transpo) slot(h uint64) uint64 {
	i := h & t.mask
	for t.slots[i].key != h && t.slots[i].key != 0 {
		i = (i + 1) & t.mask
	}
	return i
}

// seen probes the table: it reports whether state h has already been
// reached at depth ≤ depth, counting the probe as a hit or miss. It never
// modifies the table — recording is the caller's decision (a probed child
// can still be discarded by greedy-k or admission pruning, and recording
// those would block their later rediscovery forever).
func (t *transpo) seen(h uint64, depth int) bool {
	h &= ttKeyMask
	var hit bool
	if h == 0 {
		hit = t.hasZero && int(t.zero) <= depth
	} else {
		s := &t.slots[t.slot(h)]
		hit = s.key != 0 && int(s.depth) <= depth
	}
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	return hit
}

// record stores state h at the given depth, keeping the shallower of the
// new and existing depths. When the table is full it is cleared wholesale
// (generation reset, counted as evictions) rather than evicting piecemeal:
// the search's value is concentrated in recent states, and a cleared
// table only costs re-exploration, never correctness.
func (t *transpo) record(h uint64, depth int) {
	h &= ttKeyMask
	d := int32(depth)
	if h == 0 {
		if t.hasZero {
			t.zero = min(t.zero, d)
			return
		}
	} else if s := &t.slots[t.slot(h)]; s.key != 0 {
		s.depth = min(s.depth, d)
		return
	}
	if t.len() >= t.limit {
		t.reset()
	}
	t.insert(h, d)
}

// insert adds key h, known to be absent, growing the array first if the
// insert would take it past 3/4 load.
func (t *transpo) insert(h uint64, d int32) {
	if h == 0 {
		t.zero, t.hasZero = d, true
		return
	}
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow()
	}
	t.slots[t.slot(h)] = ttSlot{key: h, depth: d}
	t.used++
}

// grow doubles the slot array and re-inserts every entry.
func (t *transpo) grow() {
	old := t.slots
	t.slots = make([]ttSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.key != 0 {
			t.slots[t.slot(s.key)] = s
		}
	}
}

// forget removes the entry for state h, but only if it still records
// exactly the given depth — a shallower duplicate enqueued later must keep
// its (shallower) mark even when the deeper node that first recorded the
// state is pruned.
func (t *transpo) forget(h uint64, depth int) {
	h &= ttKeyMask
	d := int32(depth)
	if h == 0 {
		if t.hasZero && t.zero == d {
			t.hasZero = false
		}
		return
	}
	i := t.slot(h)
	if t.slots[i].key == 0 || t.slots[i].depth != d {
		return
	}
	// Backward-shift deletion: walk the rest of the probe chain and move
	// back into the hole every entry whose home slot does not lie
	// (cyclically) between the hole and the entry itself; such an entry
	// would otherwise become unreachable from its home.
	for j := (i + 1) & t.mask; t.slots[j].key != 0; j = (j + 1) & t.mask {
		home := t.slots[j].key & t.mask
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = ttSlot{}
	t.used--
}

// reset drops every entry (restart, memory-pressure escalation, or the
// entry limit), counting them as evictions. The array keeps its size.
func (t *transpo) reset() {
	t.evictions += int64(t.len())
	clear(t.slots)
	t.used = 0
	t.hasZero = false
}

// bytes is the table's contribution to the MaxMemory estimate.
func (t *transpo) bytes() int64 {
	return int64(t.len()) * ttEntryBytes
}

// export returns every recorded key in increasing order with its depth, the
// snapshot's representation (independent of the slot layout).
func (t *transpo) export() (keys []uint64, depths []int32) {
	entries := make([]ttSlot, 0, t.len())
	if t.hasZero {
		entries = append(entries, ttSlot{key: 0, depth: t.zero})
	}
	for _, s := range t.slots {
		if s.key != 0 {
			entries = append(entries, s)
		}
	}
	slices.SortFunc(entries, func(a, b ttSlot) int { return cmp.Compare(a.key, b.key) })
	keys = make([]uint64, len(entries))
	depths = make([]int32, len(entries))
	for i, e := range entries {
		keys[i], depths[i] = e.key, e.depth
	}
	return keys, depths
}

// load sets the depth of key h exactly, as a snapshot restore does; it
// neither counts a probe nor applies the entry limit.
func (t *transpo) load(h uint64, d int32) {
	if h == 0 && t.hasZero {
		t.zero = d
		return
	}
	if h != 0 {
		if s := &t.slots[t.slot(h)]; s.key != 0 {
			s.depth = d
			return
		}
	}
	t.insert(h, d)
}
