// Package btree implements an in-memory B+ tree: an ordered map from
// keys to values with efficient point lookups, ordered insertion,
// deletion, and range scans. It backs the document store's primary and
// secondary indexes and the oplog's timestamp index.
//
// The tree is generic over the key type; ordering is supplied by a
// comparison function with the usual cmp semantics (negative, zero,
// positive). It is not safe for concurrent use; callers synchronize.
package btree

import "slices"

// degree is the minimum number of children of an internal node; nodes
// hold between degree-1 and 2*degree-1 keys.
const degree = 16

const maxKeys = 2*degree - 1
const minKeys = degree - 1

// Tree is a B+ tree mapping keys of type K to values of type V.
// All key/value pairs live in leaves; internal nodes hold separators.
type Tree[K, V any] struct {
	cmp  func(a, b K) int
	root *node[K, V]
	size int
}

type node[K, V any] struct {
	keys     []K
	vals     []V           // leaf only
	children []*node[K, V] // internal only
	next     *node[K, V]   // leaf-level sibling link for scans
}

func (n *node[K, V]) leaf() bool { return n.children == nil }

// New creates an empty tree with the given comparison function.
func New[K, V any](cmp func(a, b K) int) *Tree[K, V] {
	return &Tree[K, V]{cmp: cmp, root: &node[K, V]{}}
}

// Len returns the number of key/value pairs stored.
func (t *Tree[K, V]) Len() int { return t.size }

// Clone returns a tree with t's keys and shape and nodes of its own,
// so a later Set or Delete on either tree leaves the other untouched.
// It copies node by node, with no searches or splits. mapValue, when
// not nil, gives each pair's value in the copy and is called in key
// order; nil copies the values as they are.
func (t *Tree[K, V]) Clone(mapValue func(k K, v V) V) *Tree[K, V] {
	var prev *node[K, V] // the last leaf copied, to link the next one to
	var clone func(n *node[K, V]) *node[K, V]
	clone = func(n *node[K, V]) *node[K, V] {
		c := &node[K, V]{keys: slices.Clone(n.keys)}
		if !n.leaf() {
			c.children = make([]*node[K, V], len(n.children))
			for i, child := range n.children {
				c.children[i] = clone(child)
			}
			return c
		}
		c.vals = slices.Clone(n.vals)
		if mapValue != nil {
			for i := range c.vals {
				c.vals[i] = mapValue(c.keys[i], c.vals[i])
			}
		}
		if prev != nil {
			prev.next = c
		}
		prev = c
		return c
	}
	return &Tree[K, V]{cmp: t.cmp, root: clone(t.root), size: t.size}
}

// search returns the index of the first key in n.keys >= k, and
// whether it equals k.
func (t *Tree[K, V]) search(n *node[K, V], k K) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cmp(n.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < len(n.keys) && t.cmp(n.keys[lo], k) == 0
	return lo, found
}

// Get returns the value stored for k.
func (t *Tree[K, V]) Get(k K) (V, bool) {
	n := t.root
	for !n.leaf() {
		i, found := t.search(n, k)
		if found {
			i++ // separators equal to k route right
		}
		n = n.children[i]
	}
	i, found := t.search(n, k)
	if !found {
		var zero V
		return zero, false
	}
	return n.vals[i], true
}

// Set inserts or replaces the value for k. It reports whether the key
// was newly inserted (false means replaced).
func (t *Tree[K, V]) Set(k K, v V) bool {
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &node[K, V]{children: []*node[K, V]{old}}
		t.splitChild(t.root, 0)
	}
	inserted := t.insertNonFull(t.root, k, v)
	if inserted {
		t.size++
	}
	return inserted
}

// splitChild splits the full child at index i of parent, lifting the
// median (internal child) or copying the split key (leaf child, B+
// style) into the parent.
func (t *Tree[K, V]) splitChild(parent *node[K, V], i int) {
	child := parent.children[i]
	var sep K
	right := &node[K, V]{}
	if child.leaf() {
		mid := len(child.keys) / 2
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		clear(child.keys[mid:])
		clear(child.vals[mid:])
		child.keys = child.keys[:mid:mid]
		child.vals = child.vals[:mid:mid]
		right.next = child.next
		child.next = right
	} else {
		mid := len(child.keys) / 2
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		clear(child.keys[mid:])
		clear(child.children[mid+1:])
		child.keys = child.keys[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}
	parent.keys = append(parent.keys, sep)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *Tree[K, V]) insertNonFull(n *node[K, V], k K, v V) bool {
	for {
		if n.leaf() {
			i, found := t.search(n, k)
			if found {
				n.vals[i] = v
				return false
			}
			var zk K
			var zv V
			n.keys = append(n.keys, zk)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = k
			n.vals = append(n.vals, zv)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = v
			return true
		}
		i, found := t.search(n, k)
		if found {
			i++
		}
		if len(n.children[i].keys) == maxKeys {
			t.splitChild(n, i)
			// After the split the separator at i decides the side.
			if t.cmp(k, n.keys[i]) >= 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes k and reports whether it was present.
func (t *Tree[K, V]) Delete(k K) bool {
	deleted := t.delete(t.root, k)
	if deleted {
		t.size--
	}
	if !t.root.leaf() && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return deleted
}

func (t *Tree[K, V]) delete(n *node[K, V], k K) bool {
	if n.leaf() {
		i, found := t.search(n, k)
		if !found {
			return false
		}
		n.keys = deleteAt(n.keys, i)
		n.vals = deleteAt(n.vals, i)
		return true
	}
	i, found := t.search(n, k)
	if found {
		i++
	}
	child := n.children[i]
	if len(child.keys) <= minKeys {
		i = t.fill(n, i)
		child = n.children[i]
	}
	return t.delete(child, k)
}

// fill ensures child i of n has more than minKeys keys, borrowing from
// a sibling or merging. It returns the (possibly shifted) index of the
// child that now covers the original child's key range.
func (t *Tree[K, V]) fill(n *node[K, V], i int) int {
	if i > 0 && len(n.children[i-1].keys) > minKeys {
		t.borrowLeft(n, i)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) > minKeys {
		t.borrowRight(n, i)
		return i
	}
	if i > 0 {
		t.merge(n, i-1)
		return i - 1
	}
	t.merge(n, i)
	return i
}

func (t *Tree[K, V]) borrowLeft(n *node[K, V], i int) {
	child, left := n.children[i], n.children[i-1]
	if child.leaf() {
		last := len(left.keys) - 1
		child.keys = append([]K{left.keys[last]}, child.keys...)
		child.vals = append([]V{left.vals[last]}, child.vals...)
		left.keys = truncate(left.keys, last)
		left.vals = truncate(left.vals, last)
		n.keys[i-1] = child.keys[0]
	} else {
		child.keys = append([]K{n.keys[i-1]}, child.keys...)
		last := len(left.keys) - 1
		n.keys[i-1] = left.keys[last]
		left.keys = truncate(left.keys, last)
		lc := len(left.children) - 1
		child.children = append([]*node[K, V]{left.children[lc]}, child.children...)
		left.children = truncate(left.children, lc)
	}
}

func (t *Tree[K, V]) borrowRight(n *node[K, V], i int) {
	child, right := n.children[i], n.children[i+1]
	if child.leaf() {
		child.keys = append(child.keys, right.keys[0])
		child.vals = append(child.vals, right.vals[0])
		right.keys = deleteAt(right.keys, 0)
		right.vals = deleteAt(right.vals, 0)
		n.keys[i] = right.keys[0]
	} else {
		child.keys = append(child.keys, n.keys[i])
		n.keys[i] = right.keys[0]
		right.keys = deleteAt(right.keys, 0)
		child.children = append(child.children, right.children[0])
		right.children = deleteAt(right.children, 0)
	}
}

// merge merges child i+1 into child i of n.
func (t *Tree[K, V]) merge(n *node[K, V], i int) {
	child, right := n.children[i], n.children[i+1]
	if child.leaf() {
		child.keys = append(child.keys, right.keys...)
		child.vals = append(child.vals, right.vals...)
		child.next = right.next
	} else {
		child.keys = append(child.keys, n.keys[i])
		child.keys = append(child.keys, right.keys...)
		child.children = append(child.children, right.children...)
	}
	n.keys = deleteAt(n.keys, i)
	n.children = deleteAt(n.children, i+1)
}

// deleteAt removes s[i], shifting the tail left, and zeroes the slot
// it vacates: the garbage collector scans a slice's whole backing
// array, so a stale copy past len would keep its value alive.
func deleteAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	return truncate(s, len(s)-1)
}

// truncate shortens s to n elements, zeroing the dropped ones for the
// same reason as deleteAt.
func truncate[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// Ascend calls fn for each pair with k >= from, in ascending key order,
// until fn returns false or the keys are exhausted.
func (t *Tree[K, V]) Ascend(from K, fn func(k K, v V) bool) {
	n := t.root
	for !n.leaf() {
		i, found := t.search(n, from)
		if found {
			i++
		}
		n = n.children[i]
	}
	i, _ := t.search(n, from)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// AscendAll calls fn over every pair in ascending key order.
func (t *Tree[K, V]) AscendAll(fn func(k K, v V) bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	for n != nil {
		for i := 0; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// Range calls fn for each pair with from <= k < to in ascending order.
func (t *Tree[K, V]) Range(from, to K, fn func(k K, v V) bool) {
	t.Ascend(from, func(k K, v V) bool {
		if t.cmp(k, to) >= 0 {
			return false
		}
		return fn(k, v)
	})
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		var zk K
		var zv V
		return zk, zv, false
	}
	return n.keys[0], n.vals[0], true
}

// Max returns the largest key and its value.
func (t *Tree[K, V]) Max() (K, V, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		var zk K
		var zv V
		return zk, zv, false
	}
	last := len(n.keys) - 1
	return n.keys[last], n.vals[last], true
}
