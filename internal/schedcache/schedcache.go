// Package schedcache is a bounded, sharded LRU of memoized
// allocate→schedule pipeline results, keyed by the relabel-invariant
// canonical MDG hash plus the cost model, solve-shaping options, and
// processor count (the key is derived in the paradigm package; this
// package stores plain data so it depends on nothing above the standard
// library).
//
// Where the allocation cache (internal/alloc, a Cache[alloc.CacheEntry])
// memoizes only the convex allocation, an entry here carries the whole
// planning half of the pipeline: the continuous allocation with its
// objective decomposition AND the rounded PSA schedule (per-node
// start/finish windows and concrete processor sets). An exact hit
// replays both byte-identically without compiling, solving, or
// list-scheduling — the downstream codegen and simulation stages are
// deterministic functions of (program, schedule), so a service front end
// amortizes the entire solver cost across repeated graphs. Like the
// allocation cache it is exact replay or nothing, which is what keeps
// cached results pure functions of the request (DESIGN.md §14–15).
//
// Entries live in canonical node order, so graphs that differ only by
// node relabeling share one entry: allocations and schedules are
// permuted into canonical order on insert and permuted back through the
// querying graph's own canonicalizing permutation on replay.
//
// The cache is sharded: keys hash onto independently locked LRU shards,
// so concurrent service workers hitting different graphs never contend
// on one mutex. Capacity is divided evenly across shards (each shard
// holds at least one entry). All methods are safe for concurrent use.
package schedcache

import (
	"container/list"
	"hash/fnv"
	"sync"
)

// NodeSched is one node's scheduled window in canonical node order.
type NodeSched struct {
	Start, Finish float64
	// Procs are the concrete processor ids running the node, ascending.
	Procs []int
}

// Entry is one memoized allocate→schedule result in canonical node
// order.
type Entry struct {
	// PCanon holds the continuous per-node allocation permuted into
	// canonical order: PCanon[perm[i]] = P[i] for the canonicalizing
	// perm of the solved graph.
	PCanon []float64
	// Phi, Ap, Cp are the exact objective values of the stored solve.
	Phi, Ap, Cp float64
	// AllocCanon is the rounded-and-bounded per-node allocation in
	// canonical order.
	AllocCanon []int
	// Nodes are the scheduled windows in canonical order.
	Nodes []NodeSched
	// ProcsTotal, PB, Makespan and Policy mirror the schedule header.
	ProcsTotal, PB int
	Makespan       float64
	Policy         uint8
}

// clone deep-copies the entry so cached state and caller state can never
// alias each other in either direction.
func (e Entry) clone() Entry {
	e.PCanon = append([]float64(nil), e.PCanon...)
	e.AllocCanon = append([]int(nil), e.AllocCanon...)
	nodes := make([]NodeSched, len(e.Nodes))
	for i, n := range e.Nodes {
		n.Procs = append([]int(nil), n.Procs...)
		nodes[i] = n
	}
	e.Nodes = nodes
	return e
}

// Cache is a sharded, bounded LRU from exact keys to values of type V.
// The schedule cache is a Cache[Entry]; the service also keeps its built
// programs in one (NewOf), rather than in an LRU of its own.
type Cache[V any] struct {
	shards []*shard
	// clone copies a value on its way in and on its way out, so cached
	// state and caller state never alias; nil hands out the stored value
	// itself, for values nobody writes once they are stored.
	clone func(V) V
}

type shard struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // front = most recent
	m   map[string]*list.Element // exact key -> element
}

type cacheItem[V any] struct {
	key   string
	value V
}

// New creates a schedule cache holding at most capacity entries spread
// over the given number of shards (minimums 1 and 1; each shard holds at
// least one entry, so the effective capacity is max(capacity, shards)).
func New(capacity, shards int) *Cache[Entry] {
	return NewOf(capacity, shards, Entry.clone)
}

// NewOf is New for any value type, with the copy discipline the values
// need (see Cache.clone).
func NewOf[V any](capacity, shards int, clone func(V) V) *Cache[V] {
	if shards < 1 {
		shards = 1
	}
	if capacity < shards {
		capacity = shards
	}
	if clone == nil {
		clone = func(v V) V { return v }
	}
	c := &Cache[V]{shards: make([]*shard, shards), clone: clone}
	per := capacity / shards
	extra := capacity % shards
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = &shard{
			cap: max(1, n),
			ll:  list.New(),
			m:   make(map[string]*list.Element),
		}
	}
	return c
}

// shardFor routes a key to its shard by FNV-1a.
func (c *Cache[V]) shardFor(key string) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	// Reduced in uint32: int(Sum32()) is negative on a 32-bit int.
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Len reports the number of stored entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Shards reports the shard count.
func (c *Cache[V]) Shards() int { return len(c.shards) }

// Get returns the value stored under the exact key, marking it most
// recently used in its shard.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.ll.MoveToFront(el)
	return c.clone(el.Value.(*cacheItem[V]).value), true
}

// Put stores the value under the exact key, evicting the least recently
// used entry of the key's shard past its capacity.
func (c *Cache[V]) Put(key string, v V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheItem[V]).value = c.clone(v)
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&cacheItem[V]{key: key, value: c.clone(v)})
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*cacheItem[V]).key)
	}
}
