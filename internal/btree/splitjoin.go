package btree

// Split (paper Sec 3.2, citing [16, Chapter 7.3.2]): SplitAtRank cuts a
// tree at a rank boundary in time logarithmic in the tree size, by
// cutting the root-to-leaf path and joining the fragments on each side
// back together with joinNodes. The reservoir uses SplitAtRank after every
// selection to discard all items whose keys exceed the new global
// threshold.
//
// Nodes on the cut path may be left underfull; Validate's relaxed mode
// checks exactly the invariants that are maintained.

type frag[V any] struct {
	n node[V]
	h int
}

// joinNodes joins two detached subtrees; every key in l is strictly less
// than every key in r. It links the boundary leaves and returns the joined
// root and height.
func (t *Tree[V]) joinNodes(l node[V], hl int, r node[V], hr int) (node[V], int) {
	// Stitch the leaf chain across the boundary.
	rl := rightmostLeaf[V](l, hl)
	lf := leftmostLeaf[V](r, hr)
	rl.next = lf
	lf.prev = rl

	switch {
	case hl == hr:
		if hl == 0 {
			ll, rr := l.(*leaf[V]), r.(*leaf[V])
			if len(ll.keys)+len(rr.keys) <= t.degree {
				ll.keys = append(ll.keys, rr.keys...)
				ll.vals = append(ll.vals, rr.vals...)
				ll.next = rr.next
				if rr.next != nil {
					rr.next.prev = ll
				}
				return ll, 0
			}
		} else {
			li, ri := l.(*inner[V]), r.(*inner[V])
			if len(li.children)+len(ri.children) <= t.degree {
				li.seps = append(li.seps, t.maxOf(li.children[len(li.children)-1], hl-1))
				li.seps = append(li.seps, ri.seps...)
				li.children = append(li.children, ri.children...)
				li.sz += ri.sz
				return li, hl
			}
		}
		n := &inner[V]{
			seps:     []Key{t.maxOf(l, hl)},
			children: []node[V]{l, r},
			sz:       l.size() + r.size(),
		}
		return n, hl + 1
	case hl > hr:
		sep, split := t.attachRight(l.(*inner[V]), hl, r, hr)
		if split != nil {
			n := &inner[V]{seps: []Key{sep}, children: []node[V]{l, split}, sz: l.size() + split.size()}
			return n, hl + 1
		}
		return l, hl
	default:
		sep, split := t.attachLeft(r.(*inner[V]), hr, l, hl)
		if split != nil {
			n := &inner[V]{seps: []Key{sep}, children: []node[V]{r, split}, sz: r.size() + split.size()}
			return n, hr + 1
		}
		return r, hr
	}
}

// attachRight hangs subtree b (height hb, keys larger than everything in n)
// below the right spine of n (inner node of height h > hb). It returns a
// split sibling of n if n overflowed.
func (t *Tree[V]) attachRight(n *inner[V], h int, b node[V], hb int) (Key, node[V]) {
	n.sz += b.size()
	if h == hb+1 {
		n.seps = append(n.seps, t.maxOf(n.children[len(n.children)-1], h-1))
		n.children = append(n.children, b)
	} else {
		last := n.children[len(n.children)-1].(*inner[V])
		csep, csplit := t.attachRight(last, h-1, b, hb)
		if csplit != nil {
			n.seps = append(n.seps, csep)
			n.children = append(n.children, csplit)
		}
	}
	if len(n.children) > t.degree {
		return t.splitInner(n)
	}
	return Key{}, nil
}

// attachLeft hangs subtree b (height hb, keys smaller than everything in n)
// below the left spine of n (inner node of height h > hb).
func (t *Tree[V]) attachLeft(n *inner[V], h int, b node[V], hb int) (Key, node[V]) {
	n.sz += b.size()
	if h == hb+1 {
		n.seps = append([]Key{t.maxOf(b, hb)}, n.seps...)
		n.children = append([]node[V]{b}, n.children...)
	} else {
		first := n.children[0].(*inner[V])
		csep, csplit := t.attachLeft(first, h-1, b, hb)
		if csplit != nil {
			// csplit holds the larger half of the split child; it goes
			// directly after child 0.
			n.seps = append([]Key{csep}, n.seps...)
			rest := append([]node[V]{n.children[0], csplit}, n.children[1:]...)
			n.children = rest
		}
	}
	if len(n.children) > t.degree {
		return t.splitInner(n)
	}
	return Key{}, nil
}

// maxOf returns the largest key stored in the subtree rooted at n.
func (t *Tree[V]) maxOf(n node[V], h int) Key {
	l := rightmostLeaf[V](n, h)
	return l.keys[len(l.keys)-1]
}

func rightmostLeaf[V any](n node[V], h int) *leaf[V] {
	for h > 0 {
		in := n.(*inner[V])
		n = in.children[len(in.children)-1]
		h--
	}
	return n.(*leaf[V])
}

func leftmostLeaf[V any](n node[V], h int) *leaf[V] {
	for h > 0 {
		n = n.(*inner[V]).children[0]
		h--
	}
	return n.(*leaf[V])
}

// SplitAtRank keeps the r smallest items in t and returns a new tree
// holding the remaining Len()-r largest items. r <= 0 moves everything to
// the returned tree; r >= Len() returns an empty tree.
func (t *Tree[V]) SplitAtRank(r int) *Tree[V] {
	right := NewWithDegree[V](t.degree)
	if t.root == nil || r >= t.Len() {
		return right
	}
	if r <= 0 {
		right.root, right.height = t.root, t.height
		t.Clear()
		return right
	}
	var lfrags, rfrags []frag[V]
	t.splitNode(t.root, t.height, r, &lfrags, &rfrags)
	t.root, t.height = t.foldJoinAsc(lfrags)
	right.root, right.height = t.foldJoinDesc(rfrags)
	return right
}

// SplitByKey keeps the items with keys <= k and returns a tree with the
// items whose keys are > k.
func (t *Tree[V]) SplitByKey(k Key) *Tree[V] {
	return t.SplitAtRank(t.CountLeq(k))
}

// splitNode cuts the subtree n (height h) after local rank r (1 <= r <
// n.size()). Fragments of the left part are appended to lfrags in ascending
// key order; fragments of the right part are appended to rfrags in
// descending key order.
func (t *Tree[V]) splitNode(n node[V], h, r int, lfrags, rfrags *[]frag[V]) {
	if h == 0 {
		l := n.(*leaf[V])
		nr := &leaf[V]{
			keys: append(make([]Key, 0, t.degree+1), l.keys[r:]...),
			vals: append(make([]V, 0, t.degree+1), l.vals[r:]...),
		}
		clearTailVals(l.vals, r)
		l.keys = l.keys[:r]
		l.vals = l.vals[:r]
		nr.next = l.next
		if nr.next != nil {
			nr.next.prev = nr
		}
		l.next = nil
		nr.prev = nil
		*lfrags = append(*lfrags, frag[V]{l, 0})
		*rfrags = append(*rfrags, frag[V]{nr, 0})
		return
	}
	in := n.(*inner[V])
	i, rr := 0, r
	for ; i < len(in.children); i++ {
		s := in.children[i].size()
		if rr <= s {
			break
		}
		rr -= s
	}
	if rr == in.children[i].size() {
		// Clean cut between child i and child i+1: sever the leaf chain.
		rl := rightmostLeaf[V](in.children[i], h-1)
		lf := leftmostLeaf[V](in.children[i+1], h-1)
		rl.next = nil
		lf.prev = nil
		appendSideFrag(t, lfrags, in, 0, i+1, h)
		appendSideFrag(t, rfrags, in, i+1, len(in.children), h)
		return
	}
	appendSideFrag(t, lfrags, in, 0, i, h)
	// Right-side siblings are collected before recursing so that rfrags
	// stays in descending key order.
	appendSideFrag(t, rfrags, in, i+1, len(in.children), h)
	t.splitNode(in.children[i], h-1, rr, lfrags, rfrags)
}

// appendSideFrag packages children [from, to) of in (an inner node of
// height h) as a fragment. Single children collapse to their own height.
func appendSideFrag[V any](t *Tree[V], frags *[]frag[V], in *inner[V], from, to, h int) {
	switch n := to - from; {
	case n <= 0:
		return
	case n == 1:
		*frags = append(*frags, frag[V]{in.children[from], h - 1})
	default:
		f := &inner[V]{
			seps:     append(make([]Key, 0, t.degree), in.seps[from:to-1]...),
			children: append(make([]node[V], 0, t.degree+1), in.children[from:to]...),
		}
		for _, c := range f.children {
			f.sz += c.size()
		}
		*frags = append(*frags, frag[V]{f, h})
	}
}

// foldJoinAsc joins fragments listed in ascending key order.
func (t *Tree[V]) foldJoinAsc(frags []frag[V]) (node[V], int) {
	if len(frags) == 0 {
		return nil, 0
	}
	acc := frags[0]
	for _, f := range frags[1:] {
		acc.n, acc.h = t.joinNodes(acc.n, acc.h, f.n, f.h)
	}
	return acc.n, acc.h
}

// foldJoinDesc joins fragments listed in descending key order.
func (t *Tree[V]) foldJoinDesc(frags []frag[V]) (node[V], int) {
	if len(frags) == 0 {
		return nil, 0
	}
	acc := frags[len(frags)-1]
	for i := len(frags) - 2; i >= 0; i-- {
		acc.n, acc.h = t.joinNodes(acc.n, acc.h, frags[i].n, frags[i].h)
	}
	return acc.n, acc.h
}
