package mapreduce

import (
	"math/rand"
	"slices"
	"testing"
)

// slotAll indexes keys in order and returns each one's slot.
func slotAll[K comparable](x *KeyIndex[K], keys ...K) []int32 {
	slots := make([]int32, len(keys))
	for i, k := range keys {
		slots[i], _ = x.Slot(k)
	}
	return slots
}

func TestKeyIndexFirstSeenOrder(t *testing.T) {
	var x KeyIndex[int64]
	// Dense ids, a negative id and a sparse huge id, interleaved and
	// repeated: every kind shares one first-seen numbering.
	keys := []int64{7, 3, -5, 7, 1 << 40, 0, 3, -5, 1 << 40}
	want := []int32{0, 1, 2, 0, 3, 4, 1, 2, 3}
	if got := slotAll(&x, keys...); !slices.Equal(got, want) {
		t.Fatalf("slots %v, want %v", got, want)
	}
	if got := x.Keys(); !slices.Equal(got, []int64{7, 3, -5, 1 << 40, 0}) {
		t.Fatalf("keys %v", got)
	}
	if _, added := x.Slot(3); added {
		t.Fatal("re-slotting a known key reported it as added")
	}
	for s, k := range x.Keys() {
		if got, ok := x.Lookup(k); !ok || got != int32(s) {
			t.Fatalf("Lookup(%d) = %d,%v, want %d", k, got, ok, s)
		}
	}
	for _, k := range []int64{1, -1, 1<<40 + 1} {
		if _, ok := x.Lookup(k); ok {
			t.Fatalf("Lookup(%d) found a key never indexed", k)
		}
	}
	// Negative and huge keys take the map; the table only covers 7.
	if _, ok := x.sparse[-5]; !ok {
		t.Fatal("negative key not in the map")
	}
	if _, ok := x.sparse[1<<40]; !ok {
		t.Fatal("sparse huge key not in the map")
	}
	if len(x.dense) > 64 {
		t.Fatalf("table length %d for keys up to 7", len(x.dense))
	}
}

// A sparse huge id alone must fall back to the map without allocating a
// table anywhere near its value.
func TestKeyIndexSparseKeyNoLargeTable(t *testing.T) {
	var x KeyIndex[int64]
	x.Slot(1 << 40)
	if x.dense != nil {
		t.Fatalf("one key 1<<40 allocated a %d-entry table", len(x.dense))
	}
	if s, ok := x.Lookup(1 << 40); !ok || s != 0 {
		t.Fatalf("Lookup(1<<40) = %d,%v", s, ok)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var y KeyIndex[int64]
		y.Slot(1 << 40)
	})
	// The map and the key slice; no table.
	if allocs > 4 {
		t.Fatalf("indexing one sparse key made %v allocations", allocs)
	}
}

// Property: over random streams mixing dense, negative and sparse keys,
// slots follow first-seen order, a key never gets two slots (including
// keys that moved from the map when the table grew past them), and the
// table stays within its bound.
func TestKeyIndexMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		var x KeyIndex[int64]
		model := map[int64]int32{}
		span := int64(1) << r.Intn(20)
		n := r.Intn(5000)
		for i := 0; i < n; i++ {
			k := r.Int63n(span)
			switch r.Intn(20) {
			case 0:
				k = -k - 1
			case 1:
				k += 1 << 40
			}
			want, seen := model[k]
			if !seen {
				want = int32(len(model))
				model[k] = want
			}
			got, added := x.Slot(k)
			if got != want || added == seen {
				t.Fatalf("round %d: Slot(%d) = %d,%v, want %d,%v", round, k, got, added, want, !seen)
			}
			if bound := max(denseFloor, denseSlack*(i+1)); len(x.dense) > bound {
				t.Fatalf("round %d: table %d entries after %d records, bound %d", round, len(x.dense), i+1, bound)
			}
		}
		for k, want := range model {
			if got, ok := x.Lookup(k); !ok || got != want {
				t.Fatalf("round %d: Lookup(%d) = %d,%v, want %d", round, k, got, ok, want)
			}
		}
		for k := range x.sparse {
			if u, ok := denseKey(k); ok && u < uint64(len(x.dense)) {
				t.Fatalf("round %d: key %d is in the map but under the table length %d", round, k, len(x.dense))
			}
		}
	}
}

func TestKeyIndexReset(t *testing.T) {
	var x KeyIndex[int64]
	slotAll(&x, 5, 9, -1, 1<<40)
	table := len(x.dense)
	x.Reset()
	if n := len(x.Keys()); n != 0 {
		t.Fatalf("%d keys after Reset", n)
	}
	for _, k := range []int64{5, 9, -1, 1 << 40} {
		if _, ok := x.Lookup(k); ok {
			t.Fatalf("key %d survived Reset", k)
		}
	}
	if got := slotAll(&x, 9, 1<<40, 5); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("slots after Reset %v", got)
	}
	if len(x.dense) != table {
		t.Fatalf("Reset dropped the table: %d -> %d entries", table, len(x.dense))
	}
}

// String keys always take the map and keep first-seen order.
func TestKeyIndexStringKeys(t *testing.T) {
	var x KeyIndex[string]
	if got := slotAll(&x, "b", "a", "b", "c", "a"); !slices.Equal(got, []int32{0, 1, 0, 2, 1}) {
		t.Fatalf("slots %v", got)
	}
	if got := x.Keys(); !slices.Equal(got, []string{"b", "a", "c"}) {
		t.Fatalf("keys %v", got)
	}
	if x.dense != nil {
		t.Fatal("string keys allocated a table")
	}
}
