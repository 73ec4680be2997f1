package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// model is a reference implementation backed by a sorted slice.
type model struct {
	keys []Key
	vals []int
}

func (m *model) insert(k Key, v int) {
	i := sort.Search(len(m.keys), func(i int) bool { return !m.keys[i].Less(k) })
	m.keys = append(m.keys, Key{})
	copy(m.keys[i+1:], m.keys[i:])
	m.keys[i] = k
	m.vals = append(m.vals, 0)
	copy(m.vals[i+1:], m.vals[i:])
	m.vals[i] = v
}

func (m *model) countLeq(k Key) int {
	return sort.Search(len(m.keys), func(i int) bool { return k.Less(m.keys[i]) })
}

func (m *model) splitAt(r int) *model {
	if r < 0 {
		r = 0
	}
	if r > len(m.keys) {
		r = len(m.keys)
	}
	right := &model{
		keys: append([]Key(nil), m.keys[r:]...),
		vals: append([]int(nil), m.vals[r:]...),
	}
	m.keys = m.keys[:r]
	m.vals = m.vals[:r]
	return right
}

func randKey(r *rand.Rand) Key {
	return Key{V: r.Float64(), ID: r.Uint64()}
}

// keysOf returns the tree's keys in ascending order.
func keysOf(tr *Tree[int]) []Key {
	out := make([]Key, 0, tr.Len())
	tr.ForEach(func(k Key, _ int) bool { out = append(out, k); return true })
	return out
}

// join appends o's items, whose keys all exceed t's, to t through
// joinNodes, the subtree join SplitAtRank reassembles its fragments with,
// and empties o.
func join(t, o *Tree[int]) {
	switch {
	case o.root == nil:
	case t.root == nil:
		t.root, t.height = o.root, o.height
	default:
		t.root, t.height = t.joinNodes(t.root, t.height, o.root, o.height)
	}
	o.Clear()
}

func checkAgainstModel(t *testing.T, tr *Tree[int], m *model, strict bool) {
	t.Helper()
	if err := tr.Validate(strict); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if tr.Len() != len(m.keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(m.keys))
	}
	got := keysOf(tr)
	for i, k := range got {
		if k != m.keys[i] {
			t.Fatalf("key %d = %v, want %v", i, k, m.keys[i])
		}
	}
	// Spot-check Select and values via ForEach.
	i := 0
	tr.ForEach(func(k Key, v int) bool {
		if v != m.vals[i] {
			t.Fatalf("val %d = %d, want %d", i, v, m.vals[i])
		}
		i++
		return true
	})
}

func TestInsertAscending(t *testing.T) {
	tr := New[int]()
	m := &model{}
	for i := 0; i < 2000; i++ {
		k := Key{V: float64(i), ID: uint64(i)}
		tr.Insert(k, i)
		m.insert(k, i)
	}
	checkAgainstModel(t, tr, m, true)
}

func TestInsertDescending(t *testing.T) {
	tr := New[int]()
	m := &model{}
	for i := 2000; i > 0; i-- {
		k := Key{V: float64(i), ID: uint64(i)}
		tr.Insert(k, i)
		m.insert(k, i)
	}
	checkAgainstModel(t, tr, m, true)
}

func TestInsertRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, degree := range []int{3, 4, 7, 16, 64} {
		tr := NewWithDegree[int](degree)
		m := &model{}
		for i := 0; i < 3000; i++ {
			k := randKey(r)
			tr.Insert(k, i)
			m.insert(k, i)
		}
		checkAgainstModel(t, tr, m, true)
	}
}

func TestCountAndSelectAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr := New[int]()
	m := &model{}
	for i := 0; i < 2500; i++ {
		k := randKey(r)
		tr.Insert(k, i)
		m.insert(k, i)
	}
	for trial := 0; trial < 2000; trial++ {
		// Mix of existing keys and fresh random probes.
		var k Key
		if trial%2 == 0 {
			k = m.keys[r.Intn(len(m.keys))]
		} else {
			k = randKey(r)
		}
		if got, want := tr.CountLeq(k), m.countLeq(k); got != want {
			t.Fatalf("CountLeq(%v) = %d, want %d", k, got, want)
		}
	}
	for rank := 1; rank <= len(m.keys); rank += 13 {
		k, v, ok := tr.Select(rank)
		if !ok || k != m.keys[rank-1] || v != m.vals[rank-1] {
			t.Fatalf("Select(%d) = (%v,%d,%v), want (%v,%d)", rank, k, v, ok, m.keys[rank-1], m.vals[rank-1])
		}
	}
	if _, _, ok := tr.Select(0); ok {
		t.Error("Select(0) should fail")
	}
	if _, _, ok := tr.Select(tr.Len() + 1); ok {
		t.Error("Select(Len+1) should fail")
	}
}

func TestMax(t *testing.T) {
	tr := New[int]()
	if _, _, ok := tr.Max(); ok {
		t.Error("Max on empty tree should fail")
	}
	r := rand.New(rand.NewSource(3))
	m := &model{}
	for i := 0; i < 1000; i++ {
		k := randKey(r)
		tr.Insert(k, i)
		m.insert(k, i)
	}
	last := len(m.keys) - 1
	if k, v, _ := tr.Max(); k != m.keys[last] || v != m.vals[last] {
		t.Errorf("Max = (%v,%d), want (%v,%d)", k, v, m.keys[last], m.vals[last])
	}
}

func TestSplitAtRankAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(800)
		degree := 3 + r.Intn(14)
		tr := NewWithDegree[int](degree)
		m := &model{}
		for i := 0; i < n; i++ {
			k := randKey(r)
			tr.Insert(k, i)
			m.insert(k, i)
		}
		cut := r.Intn(n + 2) // includes 0 and > n
		right := tr.SplitAtRank(cut)
		mRight := m.splitAt(cut)
		checkAgainstModel(t, tr, m, false)
		rm := &model{keys: mRight.keys, vals: mRight.vals}
		rightTyped := right
		checkAgainstModel(t, rightTyped, rm, false)
	}
}

func TestSplitByKey(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	tr := New[int]()
	m := &model{}
	for i := 0; i < 500; i++ {
		k := randKey(r)
		tr.Insert(k, i)
		m.insert(k, i)
	}
	pivot := m.keys[200]
	right := tr.SplitByKey(pivot)
	if tr.Len() != 201 {
		t.Fatalf("left size = %d, want 201", tr.Len())
	}
	if right.Len() != 299 {
		t.Fatalf("right size = %d, want 299", right.Len())
	}
	if k, _, _ := tr.Max(); k != pivot {
		t.Errorf("left max = %v, want pivot %v", k, pivot)
	}
	if k, _, _ := right.Select(1); !pivot.Less(k) {
		t.Errorf("right min %v not greater than pivot %v", k, pivot)
	}
}

func TestJoinAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nl, nr := r.Intn(500), r.Intn(500)
		degree := 3 + r.Intn(14)
		left := NewWithDegree[int](degree)
		right := NewWithDegree[int](degree)
		m := &model{}
		for i := 0; i < nl; i++ {
			k := Key{V: r.Float64(), ID: uint64(i)} // V in [0,1)
			left.Insert(k, i)
			m.insert(k, i)
		}
		for i := 0; i < nr; i++ {
			k := Key{V: 1 + r.Float64(), ID: uint64(i)} // V in [1,2): disjoint above
			right.Insert(k, nl+i)
			m.insert(k, nl+i)
		}
		join(left, right)
		if right.Len() != 0 {
			t.Fatalf("joined-from tree not empty")
		}
		checkAgainstModel(t, left, m, false)
	}
}

func TestSplitThenJoinRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tr := NewWithDegree[int](6)
	m := &model{}
	for i := 0; i < 1000; i++ {
		k := randKey(r)
		tr.Insert(k, i)
		m.insert(k, i)
	}
	// Repeatedly split at a random rank and join back.
	for trial := 0; trial < 40; trial++ {
		cut := r.Intn(tr.Len() + 1)
		right := tr.SplitAtRank(cut)
		join(tr, right)
		checkAgainstModel(t, tr, m, false)
	}
}

// TestReservoirWorkload simulates the tree usage pattern of the sampler:
// interleaved inserts and split-discards of the top part.
func TestReservoirWorkload(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tr := New[int]()
	m := &model{}
	const k = 64
	for round := 0; round < 120; round++ {
		for i := 0; i < 32; i++ {
			key := randKey(r)
			tr.Insert(key, round*100+i)
			m.insert(key, round*100+i)
		}
		if tr.Len() > k {
			discarded := tr.SplitAtRank(k)
			mRight := m.splitAt(k)
			if discarded.Len() != len(mRight.keys) {
				t.Fatalf("round %d: discarded %d, want %d", round, discarded.Len(), len(mRight.keys))
			}
		}
		checkAgainstModel(t, tr, m, false)
	}
}

func TestQuickRankSelectInverse(t *testing.T) {
	// Property: for every tree built from a random key set, Select and
	// CountLeq are inverse: CountLeq(Select(r)) == r.
	f := func(vs []float64) bool {
		tr := New[int]()
		seen := map[Key]bool{}
		for i, v := range vs {
			k := Key{V: v, ID: uint64(i)}
			if seen[k] {
				continue
			}
			seen[k] = true
			tr.Insert(k, i)
		}
		for r := 1; r <= tr.Len(); r++ {
			k, _, ok := tr.Select(r)
			if !ok || tr.CountLeq(k) != r {
				return false
			}
		}
		return tr.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClearAndReuse(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Insert(Key{V: float64(i)}, i)
	}
	tr.Clear()
	if tr.Len() != 0 {
		t.Fatal("Clear did not empty the tree")
	}
	tr.Insert(Key{V: 1}, 1)
	if tr.Len() != 1 {
		t.Fatal("tree unusable after Clear")
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestNewWithDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for degree < 3")
		}
	}()
	NewWithDegree[int](2)
}

func TestDuplicateValuesDistinctIDs(t *testing.T) {
	// Same V, different IDs: order must follow IDs.
	tr := New[int]()
	for i := 9; i >= 0; i-- {
		tr.Insert(Key{V: 1, ID: uint64(i)}, i)
	}
	for i, k := range keysOf(tr) {
		if k.ID != uint64(i) {
			t.Fatalf("position %d has ID %d", i, k.ID)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(Key{V: r.Float64(), ID: uint64(i)}, i)
	}
}

func BenchmarkCountLeq(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	for i := 0; i < 100000; i++ {
		tr.Insert(Key{V: r.Float64(), ID: uint64(i)}, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CountLeq(Key{V: r.Float64()})
	}
}

func BenchmarkSplitJoin(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	for i := 0; i < 100000; i++ {
		tr.Insert(Key{V: r.Float64(), ID: uint64(i)}, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		right := tr.SplitAtRank(50000)
		join(tr, right)
	}
}
