// Package cluster scales the CRS out: it partitions a knowledge base
// across N CRS backends and serves retrievals through a scatter-gather
// router. The paper's CRS mediates between many clients and a single
// CLARE chassis (§2.2); at the §1 scale target (3000 predicates, 3M
// facts) one board cage is already strained, so the cluster layer
// composes many of them. The unit of partitioning is the predicate: a
// predicate's clause file lives whole on exactly one shard group, so
// FS1/FS2 filtering and clause order are untouched by distribution —
// the router only decides *which* chassis runs the search call.
//
// Placement uses rendezvous (highest-random-weight) hashing keyed by
// predicate indicator. kbc's partitioned build (-shards) and the
// router share ShardOf, so routing is consistent with data placement
// by construction; resizing the cluster moves only the predicates
// whose argmax changes, not ~everything as mod-N hashing would.
package cluster

import (
	"fmt"
	"strconv"

	"clare/internal/parse"
	"clare/internal/term"
)

// ShardOf places a predicate-indicator key ("functor/arity") on one of
// n shards by rendezvous hashing: the key scores every shard with an
// FNV-1a hash of key#shard, and the highest score wins. Deterministic
// across processes — the compiler, the router, and tests all agree.
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	best, bestScore := 0, uint64(0)
	for i := 0; i < n; i++ {
		score := fnv1a(key, i)
		if score > bestScore || (score == bestScore && i < best) {
			best, bestScore = i, score
		}
	}
	return best
}

// fnv1a hashes key#shard with 64-bit FNV-1a.
func fnv1a(key string, shard int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= '#'
	h *= prime64
	// Mix the shard number digit by digit (most-significant first).
	var digits [20]byte
	n := 0
	for v := shard; ; v /= 10 {
		digits[n] = byte('0' + v%10)
		n++
		if v < 10 {
			break
		}
	}
	for i := n - 1; i >= 0; i-- {
		h ^= uint64(digits[i])
		h *= prime64
	}
	return h
}

// GoalIndicator parses an Edinburgh goal (no final '.') and returns its
// predicate-indicator key "functor/arity" — the router's routing key.
func GoalIndicator(goal string) (string, error) {
	t, err := parse.Term(goal)
	if err != nil {
		return "", err
	}
	switch t := term.Deref(t).(type) {
	case term.Atom:
		return string(t) + "/0", nil
	case *term.Compound:
		return t.Functor + "/" + strconv.Itoa(len(t.Args)), nil
	}
	return "", fmt.Errorf("cluster: goal %q is not callable", goal)
}
