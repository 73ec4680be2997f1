// Package btree implements the augmented B+ tree that backs the local
// reservoirs (paper Sec 3.2): a search tree whose leaves store the items in
// key order and are doubly linked, whose inner nodes track subtree sizes so
// rank and select queries run in O(log n), and which splits at a rank in
// O(log n) — split is what lets a PE discard all items above the new
// global threshold after every mini-batch.
//
// Keys are composite (variate, id) pairs: the random variates are
// continuous, so ties have probability zero, but the id component makes the
// order total and deterministic, which keeps the distributed selection of
// the globally k-th smallest key exact.
//
// The tree is the Seq implementation behind internal/distsel's selection
// algorithms (rank/select in O(log n)) and the storage of every local
// reservoir in internal/core; splitjoin.go holds the split and the
// subtree join it is built from, validate.go the structural invariant
// checker used by the tests.
package btree

import "math"

// Key is the composite search key: the random variate V with a unique ID as
// a tie breaker. The zero Key is the smallest key with V = 0.
type Key struct {
	V  float64
	ID uint64
}

// Less reports whether a orders strictly before b.
func (a Key) Less(b Key) bool {
	if a.V != b.V {
		return a.V < b.V
	}
	return a.ID < b.ID
}

// Leq reports whether a orders before b or equals it.
func (a Key) Leq(b Key) bool { return !b.Less(a) }

// MinKey and MaxKey are the extreme sentinel keys; no stored key compares
// outside them.
var (
	MinKey = Key{V: math.Inf(-1), ID: 0}
	MaxKey = Key{V: math.Inf(1), ID: math.MaxUint64}
)

// DefaultDegree is the default maximum node degree d: inner nodes hold at
// most d children and leaves at most d items.
const DefaultDegree = 16

type node[V any] interface {
	size() int
}

type leaf[V any] struct {
	keys       []Key
	vals       []V
	next, prev *leaf[V]
}

func (l *leaf[V]) size() int { return len(l.keys) }

type inner[V any] struct {
	// seps[i] routes child i: every key in children[i] is <= seps[i] and
	// every key in children[i+1] is > seps[i]. len(seps) == len(children)-1.
	seps     []Key
	children []node[V]
	sz       int
}

func (n *inner[V]) size() int { return n.sz }

// Tree is a B+ tree mapping Keys to values of type V.
// The zero value is not usable; construct trees with New or NewWithDegree.
type Tree[V any] struct {
	root   node[V]
	height int // 0 = root is a leaf
	degree int
}

// New returns an empty tree with DefaultDegree.
func New[V any]() *Tree[V] { return NewWithDegree[V](DefaultDegree) }

// NewWithDegree returns an empty tree with the given maximum node degree
// (at least 3).
func NewWithDegree[V any](degree int) *Tree[V] {
	if degree < 3 {
		panic("btree: degree must be >= 3")
	}
	return &Tree[V]{degree: degree}
}

// Len returns the number of stored items.
func (t *Tree[V]) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.size()
}

// Clear removes all items.
func (t *Tree[V]) Clear() {
	t.root = nil
	t.height = 0
}

// --- search helpers ----------------------------------------------------

// lowerBound returns the first index i with keys[i] >= k.
func lowerBound(keys []Key, k Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid].Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i with keys[i] > k.
func upperBound(keys []Key, k Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k.Less(keys[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// --- insert -------------------------------------------------------------

// Insert adds the pair (k, v). Duplicate keys are allowed by the structure
// but the reservoir never produces them; Insert stores them adjacent.
func (t *Tree[V]) Insert(k Key, v V) {
	if t.root == nil {
		l := &leaf[V]{keys: make([]Key, 0, t.degree+1), vals: make([]V, 0, t.degree+1)}
		l.keys = append(l.keys, k)
		l.vals = append(l.vals, v)
		t.root = l
		t.height = 0
		return
	}
	sep, right := t.insert(t.root, t.height, k, v)
	if right != nil {
		r := &inner[V]{
			seps:     []Key{sep},
			children: []node[V]{t.root, right},
			sz:       t.root.size() + right.size(),
		}
		t.root = r
		t.height++
	}
}

func (t *Tree[V]) insert(n node[V], h int, k Key, v V) (sep Key, right node[V]) {
	if h == 0 {
		l := n.(*leaf[V])
		i := lowerBound(l.keys, k)
		l.keys = append(l.keys, Key{})
		copy(l.keys[i+1:], l.keys[i:])
		l.keys[i] = k
		var zero V
		l.vals = append(l.vals, zero)
		copy(l.vals[i+1:], l.vals[i:])
		l.vals[i] = v
		if len(l.keys) <= t.degree {
			return Key{}, nil
		}
		return t.splitLeaf(l)
	}
	in := n.(*inner[V])
	c := lowerBound(in.seps, k) // first sep >= k, or last child
	in.sz++
	csep, cright := t.insert(in.children[c], h-1, k, v)
	if cright == nil {
		return Key{}, nil
	}
	// Insert (csep, cright) after child c.
	in.seps = append(in.seps, Key{})
	copy(in.seps[c+1:], in.seps[c:])
	in.seps[c] = csep
	in.children = append(in.children, nil)
	copy(in.children[c+2:], in.children[c+1:])
	in.children[c+1] = cright
	if len(in.children) <= t.degree {
		return Key{}, nil
	}
	return t.splitInner(in)
}

func (t *Tree[V]) splitLeaf(l *leaf[V]) (Key, node[V]) {
	mid := len(l.keys) / 2
	r := &leaf[V]{
		keys: make([]Key, len(l.keys)-mid, t.degree+1),
		vals: make([]V, len(l.keys)-mid, t.degree+1),
	}
	copy(r.keys, l.keys[mid:])
	copy(r.vals, l.vals[mid:])
	clearTailVals(l.vals, mid)
	l.keys = l.keys[:mid]
	l.vals = l.vals[:mid]
	r.next = l.next
	r.prev = l
	if r.next != nil {
		r.next.prev = r
	}
	l.next = r
	return l.keys[mid-1], r
}

// clearTailVals zeroes the tail so the GC can reclaim pointed-to values.
func clearTailVals[V any](vals []V, from int) {
	var zero V
	for i := from; i < len(vals); i++ {
		vals[i] = zero
	}
}

func (t *Tree[V]) splitInner(in *inner[V]) (Key, node[V]) {
	mid := len(in.children) / 2 // left keeps children[0:mid]
	promoted := in.seps[mid-1]
	r := &inner[V]{
		seps:     append(make([]Key, 0, t.degree), in.seps[mid:]...),
		children: append(make([]node[V], 0, t.degree+1), in.children[mid:]...),
	}
	for _, c := range r.children {
		r.sz += c.size()
	}
	in.seps = in.seps[:mid-1]
	for i := mid; i < len(in.children); i++ {
		in.children[i] = nil
	}
	in.children = in.children[:mid]
	in.sz -= r.sz
	return promoted, r
}

// --- queries ------------------------------------------------------------

// CountLeq returns the number of stored keys <= k.
func (t *Tree[V]) CountLeq(k Key) int {
	n, h, count := t.root, t.height, 0
	if n == nil {
		return 0
	}
	for h > 0 {
		in := n.(*inner[V])
		c := lowerBound(in.seps, k)
		for i := 0; i < c; i++ {
			count += in.children[i].size()
		}
		n = in.children[c]
		h--
	}
	l := n.(*leaf[V])
	return count + upperBound(l.keys, k)
}

// Select returns the item with the given 1-based rank (the rank-th smallest
// key). ok is false if rank is out of range.
func (t *Tree[V]) Select(rank int) (k Key, v V, ok bool) {
	if rank < 1 || t.root == nil || rank > t.root.size() {
		return Key{}, v, false
	}
	n, h := t.root, t.height
	for h > 0 {
		in := n.(*inner[V])
		for i, c := range in.children {
			s := c.size()
			if rank <= s {
				n = in.children[i]
				break
			}
			rank -= s
		}
		h--
	}
	l := n.(*leaf[V])
	return l.keys[rank-1], l.vals[rank-1], true
}

// Max returns the largest key and its value.
func (t *Tree[V]) Max() (k Key, v V, ok bool) {
	if t.root == nil {
		return Key{}, v, false
	}
	n, h := t.root, t.height
	for h > 0 {
		in := n.(*inner[V])
		n = in.children[len(in.children)-1]
		h--
	}
	l := n.(*leaf[V])
	return l.keys[len(l.keys)-1], l.vals[len(l.keys)-1], true
}

// ForEach visits all items in ascending key order until fn returns false.
func (t *Tree[V]) ForEach(fn func(Key, V) bool) {
	if t.root == nil {
		return
	}
	n, h := t.root, t.height
	for h > 0 {
		n = n.(*inner[V]).children[0]
		h--
	}
	for l := n.(*leaf[V]); l != nil; l = l.next {
		for i, k := range l.keys {
			if !fn(k, l.vals[i]) {
				return
			}
		}
	}
}
