package serve

import (
	"container/list"
	"sync"
)

// byteLRU is a byte-bounded least-recently-used map. It has its own
// lock, taken without the manager's, so a lookup never waits behind the
// job table and the job table never waits behind a lookup.
type byteLRU[V any] struct {
	mu    sync.Mutex
	limit int64
	bytes int64
	order *list.List // of *lruEntry[V], most recently used first
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newByteLRU[V any](limit int64) *byteLRU[V] {
	return &byteLRU[V]{limit: limit, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value stored under key and marks it most recently used.
func (c *byteLRU[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// put stores val under key, charged size bytes, and evicts from the
// least recently used end until the total fits the limit. A value
// larger than the whole limit is not kept.
func (c *byteLRU[V]) put(key string, val V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
	if size > c.limit {
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, size: size})
	c.bytes += size
	for c.bytes > c.limit {
		c.remove(c.order.Back())
	}
}

func (c *byteLRU[V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*lruEntry[V])
	delete(c.items, e.key)
	c.bytes -= e.size
}
