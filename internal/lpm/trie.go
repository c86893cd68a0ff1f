package lpm

import "net/netip"

// Trie is a binary (unibit) trie LPM engine. It is the baseline the paper
// era's software routers shipped before compressed schemes; here it serves
// as the obviously-correct oracle the tests check Dir248 and LiveTable
// against, and as the comparison point for the LPM ablation benchmark.
type Trie struct {
	root *trieNode
	n    int
}

type trieNode struct {
	child   [2]*trieNode
	nextHop int
	valid   bool
}

// NewTrie returns an empty trie.
func NewTrie() *Trie {
	return &Trie{root: &trieNode{}}
}

// Insert adds or replaces a route.
func (t *Trie) Insert(p netip.Prefix, nextHop int) error {
	addr, bits, err := validate(p, nextHop)
	if err != nil {
		return err
	}
	node := t.root
	for i := 0; i < bits; i++ {
		b := (addr >> (31 - i)) & 1
		if node.child[b] == nil {
			node.child[b] = &trieNode{}
		}
		node = node.child[b]
	}
	if !node.valid {
		t.n++
	}
	node.valid = true
	node.nextHop = nextHop
	return nil
}

// Remove withdraws a route, pruning emptied branches so sustained churn
// does not grow the trie without bound. It reports whether the prefix was
// installed.
func (t *Trie) Remove(p netip.Prefix) bool {
	addr, bits, err := validate(p, 0)
	if err != nil {
		return false
	}
	// Record the path so emptied nodes can be unlinked on the way back.
	path := make([]*trieNode, bits+1)
	node := t.root
	path[0] = node
	for i := 0; i < bits; i++ {
		node = node.child[(addr>>(31-i))&1]
		if node == nil {
			return false
		}
		path[i+1] = node
	}
	if !node.valid {
		return false
	}
	node.valid = false
	t.n--
	for i := bits; i > 0; i-- {
		n := path[i]
		if n.valid || n.child[0] != nil || n.child[1] != nil {
			break
		}
		path[i-1].child[(addr>>(32-i))&1] = nil
	}
	return true
}

// Lookup walks the trie remembering the deepest valid node.
func (t *Trie) Lookup(dst uint32) int {
	best := NoRoute
	node := t.root
	for i := 0; node != nil; i++ {
		if node.valid {
			best = node.nextHop
		}
		if i == 32 {
			break
		}
		node = node.child[(dst>>(31-i))&1]
	}
	return best
}

// Len reports the number of installed prefixes.
func (t *Trie) Len() int { return t.n }
