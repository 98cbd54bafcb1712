package mapreduce

// KeyIndex assigns each distinct key a slot 0, 1, 2, … in first-seen
// order, so callers can keep per-key data in plain slices indexed by
// slot. Non-negative int64 keys index a lookup table directly; every key
// of the paper's three applications is one (node ids, partition-local
// indices, cluster ids). Any other key, and any int64 beyond the table's
// bound, goes through a map.
//
// The table never grows past max(denseFloor, denseSlack × records
// indexed), where a record is one Slot call over the index's lifetime,
// so one sparse huge id cannot allocate a huge table. An int64 key
// that is below the table's length is always in the table, never in the
// map: growing the table moves the map's entries it now covers.
//
// The zero value is an empty index ready for use. A KeyIndex is not
// safe for concurrent writes; concurrent Lookup calls are safe.
type KeyIndex[K comparable] struct {
	keys   []K         // slot → key
	dense  []int32     // dense[k] = slot+1 for an int64 key k; 0 = absent
	sparse map[K]int32 // slot of every key not in dense
	n      int         // records indexed (Slot calls) since the index was made
}

// denseFloor is the table length always allowed; denseSlack bounds the
// table to that many entries per record indexed beyond the floor.
const (
	denseFloor = 4096
	denseSlack = 16
)

// Slot returns key's slot, assigning the next one if key is new; added
// reports whether it did.
func (x *KeyIndex[K]) Slot(key K) (slot int32, added bool) {
	x.n++
	if u, ok := denseKey(key); ok && (u < uint64(len(x.dense)) || x.grow(u)) {
		if s := x.dense[u]; s != 0 {
			return s - 1, false
		}
		slot = int32(len(x.keys))
		x.dense[u] = slot + 1
		x.keys = append(x.keys, key)
		return slot, true
	}
	if s, ok := x.sparse[key]; ok {
		return s, false
	}
	if x.sparse == nil {
		x.sparse = make(map[K]int32)
	}
	slot = int32(len(x.keys))
	x.sparse[key] = slot
	x.keys = append(x.keys, key)
	return slot, true
}

// Lookup returns key's slot without assigning one.
func (x *KeyIndex[K]) Lookup(key K) (int32, bool) {
	if u, ok := denseKey(key); ok && u < uint64(len(x.dense)) {
		s := x.dense[u]
		return s - 1, s != 0
	}
	s, ok := x.sparse[key]
	return s, ok
}

// Keys returns the indexed keys by slot (first-seen order). The slice
// aliases the index: it is valid until the next Slot or Reset call.
func (x *KeyIndex[K]) Keys() []K { return x.keys }

// Reset forgets every key in time proportional to their number, keeping
// the table and the map's capacity for reuse.
func (x *KeyIndex[K]) Reset() {
	for _, k := range x.keys {
		if u, ok := denseKey(k); ok && u < uint64(len(x.dense)) {
			x.dense[u] = 0
		}
	}
	clear(x.sparse)
	x.keys = x.keys[:0]
}

// grow extends the table to cover int64 key u if the bound allows,
// moving the map entries the longer table covers, and reports whether
// it did. Lengths are powers of two, so the table grows, and the map is
// swept, at most once per doubling.
func (x *KeyIndex[K]) grow(u uint64) bool {
	limit := uint64(max(denseFloor, denseSlack*x.n))
	if u >= limit {
		return false
	}
	n := uint64(max(64, 2*len(x.dense)))
	for n <= u {
		n *= 2
	}
	if n > limit {
		return false
	}
	dense := make([]int32, n)
	copy(dense, x.dense)
	x.dense = dense
	for k, s := range x.sparse {
		if v, ok := denseKey(k); ok && v < n {
			dense[v] = s + 1
			delete(x.sparse, k)
		}
	}
	return true
}

// denseKey reports whether key is a non-negative int64, and its value.
func denseKey[K comparable](key K) (uint64, bool) {
	v, ok := any(key).(int64)
	return uint64(v), ok && v >= 0
}
