package core

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/telemetry"
	"clare/internal/term"
)

// queryCache memoises the two query-side encodings a retrieval needs —
// the PIF query image FS2 matches against and the SCW query codeword FS1
// scans with — keyed by the goal's shape. Both encodings depend only on
// the shape (constants by value, variables by first-occurrence position),
// so repeated goals skip the encoder entirely. The cache is shared by all
// boards; entries are immutable after insertion (FS2 only reads the query
// image) and safe to hand to concurrent retrievals.
type queryCache struct {
	mu      sync.RWMutex
	cap     int
	entries map[string]*cachedQuery

	hits   atomic.Int64
	misses atomic.Int64

	// registry handles (nil when uninstrumented; observations no-op).
	hitC  *telemetry.Counter
	missC *telemetry.Counter
	sizeG *telemetry.Gauge
}

// instrument wires the cache's counters to a metrics registry.
func (c *queryCache) instrument(reg *telemetry.Registry) {
	if c == nil {
		return
	}
	c.hitC = reg.Counter("clare_qcache_hits_total", "query-encoding cache hits", nil)
	c.missC = reg.Counter("clare_qcache_misses_total", "query-encoding cache misses", nil)
	c.sizeG = reg.Gauge("clare_qcache_entries", "query-encoding cache population", nil)
}

type cachedQuery struct {
	pif *pif.Encoded
	scw scw.QueryDescriptor
}

// DefaultQueryCacheSize bounds the cache when Config.QueryCacheSize is 0.
const DefaultQueryCacheSize = 1024

// maxQueryKeyLen: goals larger than this are not worth caching (the key
// build would rival the encode).
const maxQueryKeyLen = 1 << 10

func newQueryCache(capacity int) *queryCache {
	if capacity == 0 {
		capacity = DefaultQueryCacheSize
	}
	if capacity < 0 {
		return nil // cache disabled
	}
	return &queryCache{cap: capacity, entries: make(map[string]*cachedQuery)}
}

func (c *queryCache) get(key string) *cachedQuery {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e != nil {
		c.hits.Add(1)
		c.hitC.Inc()
	} else {
		c.misses.Add(1)
		c.missC.Inc()
	}
	return e
}

func (c *queryCache) put(key string, e *cachedQuery) {
	c.mu.Lock()
	if len(c.entries) >= c.cap {
		// Epoch flush: cheap, deterministic, and the working set refills in
		// one round of misses.
		c.entries = make(map[string]*cachedQuery)
	}
	c.entries[key] = e
	n := len(c.entries)
	c.mu.Unlock()
	c.sizeG.Set(float64(n))
}

// QueryCacheStats reports the query-encoding cache's hit/miss counters and
// current size. All zeros when the cache is disabled.
type QueryCacheStats struct {
	Hits, Misses int64
	Size         int
}

func (c *queryCache) stats() QueryCacheStats {
	if c == nil {
		return QueryCacheStats{}
	}
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return QueryCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Size: n}
}

// queryKey canonicalises a goal's shape: constants by value, named
// variables by first-occurrence index (so p(X,Y) and p(A,B) share an
// entry while p(X,X) does not), anonymous variables distinct from named
// ones. ok is false for goals that are uncacheable (non-callable parts)
// or too large to be worth keying.
func queryKey(t term.Term) (key string, ok bool) {
	k := keyBuilder{buf: make([]byte, 0, 64)}
	if !k.walk(t) || len(k.buf) > maxQueryKeyLen {
		return "", false
	}
	return string(k.buf), true
}

// keyBuilder appends one goal's cache key. It runs on every retrieval,
// so it appends with strconv rather than formatting with fmt.
type keyBuilder struct {
	buf  []byte
	seen []*term.Var // named variables in first-occurrence order
}

func (k *keyBuilder) walk(t term.Term) bool {
	if len(k.buf) > maxQueryKeyLen {
		return false
	}
	switch t := term.Deref(t).(type) {
	case *term.Var:
		if t.Name == "_" {
			k.buf = append(k.buf, "_;"...)
			return true
		}
		id := slices.Index(k.seen, t)
		if id < 0 {
			id = len(k.seen)
			k.seen = append(k.seen, t)
		}
		k.buf = append(strconv.AppendInt(append(k.buf, 'v'), int64(id), 10), ';')
	case term.Atom:
		k.buf = strconv.AppendInt(append(k.buf, 'a'), int64(len(t)), 10)
		k.buf = append(append(append(k.buf, ':'), t...), ';')
	case term.Int:
		k.buf = append(strconv.AppendInt(append(k.buf, 'i'), int64(t), 10), ';')
	case term.Float:
		k.buf = append(strconv.AppendFloat(append(k.buf, 'f'), float64(t), 'x', -1, 64), ';')
	case *term.Compound:
		k.buf = strconv.AppendInt(append(k.buf, 'c'), int64(len(t.Args)), 10)
		k.buf = strconv.AppendInt(append(k.buf, ':'), int64(len(t.Functor)), 10)
		k.buf = append(append(append(k.buf, ':'), t.Functor...), '(')
		for _, a := range t.Args {
			if !k.walk(a) {
				return false
			}
		}
		k.buf = append(k.buf, ");"...)
	default:
		return false
	}
	return true
}
