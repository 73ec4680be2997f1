package btree

import "fmt"

// Validate checks the structural invariants of the tree and returns an
// error describing the first violation found.
//
// Relaxed invariants (always checked): uniform leaf depth, globally
// ascending key order, correct subtree sizes, separator soundness
// (max(child i) <= seps[i] < min(child i+1)), and a consistent doubly
// linked leaf chain covering exactly the tree's leaves.
//
// With strict set, Validate additionally checks the B+ tree fill degrees
// that hold after pure insertion workloads: every node except the root is
// at least half full. A split may leave nodes underfull, so callers that
// split should validate in relaxed mode.
func (t *Tree[V]) Validate(strict bool) error {
	if t.root == nil {
		if t.height != 0 {
			return fmt.Errorf("btree: empty tree with height %d", t.height)
		}
		return nil
	}
	v := &validator[V]{t: t, strict: strict}
	min := MinKey
	if err := v.walk(t.root, t.height, true, &min); err != nil {
		return err
	}
	if t.root.size() == 0 {
		return fmt.Errorf("btree: non-nil root with size 0")
	}
	return v.checkChain()
}

type validator[V any] struct {
	t      *Tree[V]
	strict bool
	leaves []*leaf[V] // in visit (key) order
}

// walk validates the subtree rooted at n at height h. lower is the
// exclusive lower bound for keys in this subtree and is advanced to the
// subtree's max key on return.
func (v *validator[V]) walk(n node[V], h int, isRoot bool, lower *Key) error {
	half := (v.t.degree + 1) / 2
	if h == 0 {
		l, ok := n.(*leaf[V])
		if !ok {
			return fmt.Errorf("btree: non-leaf node at height 0")
		}
		if len(l.keys) != len(l.vals) {
			return fmt.Errorf("btree: leaf with %d keys but %d vals", len(l.keys), len(l.vals))
		}
		if len(l.keys) > v.t.degree {
			return fmt.Errorf("btree: leaf overfull (%d > %d)", len(l.keys), v.t.degree)
		}
		if v.strict && !isRoot && len(l.keys) < half {
			return fmt.Errorf("btree: leaf underfull (%d < %d)", len(l.keys), half)
		}
		if len(l.keys) == 0 && !isRoot {
			return fmt.Errorf("btree: empty non-root leaf")
		}
		for _, k := range l.keys {
			if !lower.Less(k) {
				return fmt.Errorf("btree: key order violation: %v then %v", *lower, k)
			}
			*lower = k
		}
		v.leaves = append(v.leaves, l)
		return nil
	}
	in, ok := n.(*inner[V])
	if !ok {
		return fmt.Errorf("btree: leaf node at height %d", h)
	}
	if len(in.children) > v.t.degree {
		return fmt.Errorf("btree: inner overfull (%d > %d children)", len(in.children), v.t.degree)
	}
	if v.strict && !isRoot && len(in.children) < half {
		return fmt.Errorf("btree: inner underfull (%d < %d children)", len(in.children), half)
	}
	if isRoot && len(in.children) < 2 && v.strict {
		return fmt.Errorf("btree: inner root with %d children", len(in.children))
	}
	if len(in.children) == 0 {
		return fmt.Errorf("btree: inner node with no children")
	}
	if len(in.seps) != len(in.children)-1 {
		return fmt.Errorf("btree: inner with %d children but %d seps", len(in.children), len(in.seps))
	}
	size := 0
	for i, c := range in.children {
		if err := v.walk(c, h-1, false, lower); err != nil {
			return err
		}
		// *lower is now the max key of child i.
		if i < len(in.seps) {
			if in.seps[i].Less(*lower) {
				return fmt.Errorf("btree: sep %v below child max %v", in.seps[i], *lower)
			}
			if v.strict && in.seps[i] != *lower {
				return fmt.Errorf("btree: sep %v != child max %v", in.seps[i], *lower)
			}
			// seps[i] < min(child i+1) is implied by the order check of the
			// next child against *lower, provided seps[i] is not beyond it:
			*lower = in.seps[i]
		}
		size += c.size()
	}
	if size != in.sz {
		return fmt.Errorf("btree: inner size %d, children sum to %d", in.sz, size)
	}
	return nil
}

// checkChain verifies that the leaf chain links exactly the leaves found by
// the tree walk, in order, with consistent back pointers.
func (v *validator[V]) checkChain() error {
	if len(v.leaves) == 0 {
		return nil
	}
	first := v.leaves[0]
	if first.prev != nil {
		return fmt.Errorf("btree: leftmost leaf has prev pointer")
	}
	cur := first
	for i, want := range v.leaves {
		if cur != want {
			return fmt.Errorf("btree: leaf chain out of order at position %d", i)
		}
		if cur.next != nil && cur.next.prev != cur {
			return fmt.Errorf("btree: broken prev pointer after position %d", i)
		}
		cur = cur.next
	}
	if cur != nil {
		return fmt.Errorf("btree: leaf chain longer than tree walk")
	}
	return nil
}
