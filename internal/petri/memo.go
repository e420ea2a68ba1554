package petri

import (
	"bytes"
	"hash/maphash"
)

// keyTable interns state keys as dense indices 0, 1, 2, … in insertion
// order. The keys lie in one byte arena and an open-addressed index of
// key numbers finds them by hash, so a lookup allocates nothing and the
// garbage collector sees a handful of pointer-free slices, not one string
// per key.
type keyTable struct {
	seed   maphash.Seed
	keys   []byte
	ends   []uint32 // key k is keys[ends[k]:ends[k+1]]
	hashes []uint64 // key k's hash
	slots  []int32  // key index + 1; 0 is empty
}

func newKeyTable() *keyTable {
	return &keyTable{seed: maphash.MakeSeed(), ends: []uint32{0}, slots: make([]int32, 1024)}
}

// key returns key k.
func (kt *keyTable) key(k int) []byte { return kt.keys[kt.ends[k]:kt.ends[k+1]] }

// find returns key's index, or -1 with the hash to pass to add.
func (kt *keyTable) find(key []byte) (int, uint64) {
	h := maphash.Bytes(kt.seed, key)
	mask := uint64(len(kt.slots) - 1)
	i := h & mask
	for range kt.slots { // the table is at most half full, so a probe ends at an empty slot
		if kt.slots[i] == 0 {
			break
		}
		k := int(kt.slots[i] - 1)
		if kt.hashes[k] == h && bytes.Equal(kt.keys[kt.ends[k]:kt.ends[k+1]], key) {
			return k, h
		}
		i = (i + 1) & mask
	}
	return -1, h
}

// add interns key, which find reported absent with hash h, and returns its
// index.
func (kt *keyTable) add(key []byte, h uint64) int {
	k := len(kt.hashes)
	kt.keys = push(kt.keys, key...)
	kt.ends = push(kt.ends, uint32(len(kt.keys)))
	kt.hashes = push(kt.hashes, h)
	if 2*len(kt.hashes) > len(kt.slots) { // keep the load at most 1/2
		kt.slots = make([]int32, 2*len(kt.slots))
		for i, hi := range kt.hashes {
			kt.place(hi, int32(i+1))
		}
		return k
	}
	kt.place(h, int32(k+1))
	return k
}

func (kt *keyTable) place(h uint64, slot int32) {
	mask := uint64(len(kt.slots) - 1)
	i := h & mask
	for range kt.slots {
		if kt.slots[i] == 0 {
			kt.slots[i] = slot
			return
		}
		i = (i + 1) & mask
	}
}
