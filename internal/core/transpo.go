package core

import (
	"cmp"
	"math"
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
// Layout: an open-addressed table whose length is a power of two, kept as
// two pointer-free arrays of that length: keys, 8 bytes per slot, and
// depths, 1 byte per slot, so a slot is 9 bytes. The keys are already
// splitmix-mixed, so a key's home slot is its low bits (h & mask) and a
// probe walks keys forward linearly from there until it meets the key or
// an empty slot; only a hit or an update reads the depth byte. Key 0 marks
// an empty slot, so state hash 0 is kept out of band in zero/hasZero. A
// depth in 0…254 sits in its slot's byte; any other depth leaves the byte
// at ttDeep and sits exactly in the deep map, keyed by the state (depths
// of 255 and more are rare but real: MaxGates can exceed 255). The array
// doubles when an insert would take it past 3/4 load; forget uses
// backward-shift deletion, so the table never holds tombstones and probe
// chains stay as short as an insert-only table's.
//
// The search probes a child with seen and, when it queues the child,
// records the same key straight after. seen therefore leaves a hint — the
// key it probed and the slot its walk ended on — and a record of that key
// starts from the slot instead of walking the chain again, so a pushed
// child costs one probe. Every call that can move or fill a slot (record,
// insert, grow, forget, reset) clears the hint first, so a hint is only
// ever used on the table it was taken from.
type transpo struct {
	keys      []uint64         // slot keys; 0 = empty
	depths    []uint8          // slot depths, ttDeep when the depth is in deep; 0 when empty
	deep      map[uint64]int32 // depths outside 0…254, by key; nil until first needed
	mask      uint64           // len(keys) − 1
	used      int              // occupied slots (hash 0 not included)
	hintKey   uint64           // key of the last seen probe; 0 = no hint
	hintSlot  uint64           // slot that probe ended on
	zero      int32            // depth recorded for hash 0, valid when hasZero
	hasZero   bool
	limit     int // maximum entries; exceeding it clears the table
	hits      int64
	misses    int64
	evictions int64
}

// ttDeep is the depth byte of a slot whose depth is kept in transpo.deep.
const ttDeep = math.MaxUint8

// ttMinSlots is the initial array length: short searches (most 3-variable
// functions) never grow it.
const ttMinSlots = 64

// ttKeyMask is applied to every key before it touches the table. Tests
// narrow it to force hash collisions; the search never changes it.
var ttKeyMask = ^uint64(0)

// ttEntryBytes approximates the resident cost of one table entry for the
// Options.MaxMemory accounting: a 9-byte slot at 3/8 to 3/4 load, with the
// array doubling, is 12–24 bytes per entry. Coarse on purpose, like the node
// estimates (see memOf), and fixed so that MaxMemory pruning and
// PeakQueueBytes do not depend on the table's layout.
const ttEntryBytes = 32

func newTranspo(limit int) *transpo {
	return &transpo{
		keys:   make([]uint64, ttMinSlots),
		depths: make([]uint8, ttMinSlots),
		mask:   ttMinSlots - 1,
		limit:  limit,
	}
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
	for t.keys[i] != h && t.keys[i] != 0 {
		i = (i + 1) & t.mask
	}
	return i
}

// depthAt returns the depth recorded in occupied slot i.
func (t *transpo) depthAt(i uint64) int32 {
	if d := t.depths[i]; d != ttDeep {
		return int32(d)
	}
	return t.deep[t.keys[i]]
}

// setDepth sets the depth of occupied slot i, which holds key h: in the
// slot's byte when it is in 0…254, otherwise in deep.
func (t *transpo) setDepth(i, h uint64, d int32) {
	if uint32(d) < ttDeep {
		if t.depths[i] == ttDeep {
			delete(t.deep, h)
		}
		t.depths[i] = uint8(d)
		return
	}
	if t.deep == nil {
		t.deep = make(map[uint64]int32)
	}
	t.deep[h] = d
	t.depths[i] = ttDeep
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
		i := t.slot(h)
		t.hintKey, t.hintSlot = h, i
		hit = t.keys[i] != 0 && int(t.depthAt(i)) <= depth
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
		t.hintKey = 0
		if t.hasZero {
			t.zero = min(t.zero, d)
			return
		}
		if t.len() >= t.limit {
			t.reset()
		}
		t.zero, t.hasZero = d, true
		return
	}
	i := t.hintSlot
	if t.hintKey != h {
		i = t.slot(h)
	}
	t.hintKey = 0
	if t.keys[i] != 0 {
		if d < t.depthAt(i) {
			t.setDepth(i, h, d)
		}
		return
	}
	if t.len() >= t.limit {
		t.reset()
		i = t.slot(h)
	}
	t.insertAt(i, h, d)
}

// insert adds key h, known to be absent.
func (t *transpo) insert(h uint64, d int32) {
	if h == 0 {
		t.zero, t.hasZero = d, true
		return
	}
	t.insertAt(t.slot(h), h, d)
}

// insertAt adds key h ≠ 0, known to be absent, at slot i, the empty slot
// that ends its probe chain. If the insert would take the array past 3/4
// load it grows the array first and finds the slot again.
func (t *transpo) insertAt(i, h uint64, d int32) {
	t.hintKey = 0
	if 4*(t.used+1) > 3*len(t.keys) {
		t.grow()
		i = t.slot(h)
	}
	t.keys[i] = h
	t.setDepth(i, h, d)
	t.used++
}

// grow doubles the slot arrays and re-inserts every entry. deep is keyed
// by state, so it does not change.
func (t *transpo) grow() {
	t.hintKey = 0
	oldKeys, oldDepths := t.keys, t.depths
	t.keys = make([]uint64, 2*len(oldKeys))
	t.depths = make([]uint8, len(t.keys))
	t.mask = uint64(len(t.keys) - 1)
	for j, k := range oldKeys {
		if k != 0 {
			i := t.slot(k)
			t.keys[i], t.depths[i] = k, oldDepths[j]
		}
	}
}

// forget removes the entry for state h, but only if it still records
// exactly the given depth — a shallower duplicate enqueued later must keep
// its (shallower) mark even when the deeper node that first recorded the
// state is pruned.
func (t *transpo) forget(h uint64, depth int) {
	t.hintKey = 0
	h &= ttKeyMask
	d := int32(depth)
	if h == 0 {
		if t.hasZero && t.zero == d {
			t.hasZero = false
		}
		return
	}
	i := t.slot(h)
	if t.keys[i] == 0 || t.depthAt(i) != d {
		return
	}
	if t.depths[i] == ttDeep {
		delete(t.deep, h)
	}
	// Backward-shift deletion: walk the rest of the probe chain and move
	// back into the hole every entry whose home slot does not lie
	// (cyclically) between the hole and the entry itself; such an entry
	// would otherwise become unreachable from its home.
	for j := (i + 1) & t.mask; t.keys[j] != 0; j = (j + 1) & t.mask {
		home := t.keys[j] & t.mask
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.keys[i], t.depths[i] = t.keys[j], t.depths[j]
			i = j
		}
	}
	t.keys[i], t.depths[i] = 0, 0
	t.used--
}

// reset drops every entry (restart, memory-pressure escalation, or the
// entry limit), counting them as evictions. The array keeps its size.
func (t *transpo) reset() {
	t.hintKey = 0
	t.evictions += int64(t.len())
	clear(t.keys)
	clear(t.depths)
	clear(t.deep)
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
	type entry struct {
		key   uint64
		depth int32
	}
	entries := make([]entry, 0, t.len())
	if t.hasZero {
		entries = append(entries, entry{0, t.zero})
	}
	for i, k := range t.keys {
		if k != 0 {
			entries = append(entries, entry{k, t.depthAt(uint64(i))})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
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
		if i := t.slot(h); t.keys[i] != 0 {
			t.setDepth(i, h, d)
			return
		}
	}
	t.insert(h, d)
}
