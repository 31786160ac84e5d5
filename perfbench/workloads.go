package main

import (
	"fmt"
	"math/rand"
	"strings"

	"clare/internal/cluster"
	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/term"
	"clare/internal/workload"
)

// Workload names, in the order --workload all runs them.
var workloadNames = []string{"point-routed", "scan-direct", "write-mix"}

var builders = map[string]func(seed int64, tiny bool) (*spec, error){
	"point-routed": pointRouted,
	"scan-direct":  scanDirect,
	"write-mix":    writeMix,
}

// clients is the closed-loop connection count of every workload.
const clients = 2

// spec is one generated workload: the knowledge base, the stack shape
// serving it, and the goal and write streams the clients send. The stack
// sees only these generated clauses and goal texts.
type spec struct {
	name   string
	preds  []workload.Predicate
	shards int  // > 0: clients reach a cluster.Server routing over this many shard backends
	wal    bool // the backend logs writes (fsync always) — write-mix only

	distinct []*goal // every distinct read goal, each with its reference answer
	reads    []*goal // the read stream, walked cyclically

	// writePred names the predicate the traced run's write layers and
	// write-mix's durability check use; writeFact renders the fresh fact
	// for write i of connection c. mixed marks write-mix, where
	// connection 0 writes while connection 1 reads; otherwise read phases
	// and a write probe alternate on both connections (see probeSlices),
	// so the read figures carry no write interference.
	writePred core.Indicator
	writeFact func(c, i int) string
	mixed     bool
	sizes     string // human summary of the KB and streams
}

// goal is one distinct read goal.
type goal struct {
	text string // wire form without the final '.'
	mode string // fs1+fs2 or fs2
	t    term.Term
	pi   core.Indicator
	ref  []string // normalised reference answer (see normClause)
}

func newGoal(text, mode string) (*goal, error) {
	t, err := parse.Term(text)
	if err != nil {
		return nil, fmt.Errorf("goal %q: %w", text, err)
	}
	pi := core.Indicator{Functor: text}
	if c, ok := t.(*term.Compound); ok {
		pi = core.Indicator{Functor: c.Functor, Arity: len(c.Args)}
	}
	return &goal{text: text, mode: mode, t: t, pi: pi}, nil
}

// notePreds are the small side predicates the read-only workloads'
// write probe asserts into and retracts from: note<c>/2 for connection c,
// so the two writers never wait on each other's predicate lock.
func notePreds() []workload.Predicate {
	var ps []workload.Predicate
	for c := 0; c < clients; c++ {
		name := fmt.Sprintf("note%d", c)
		p := workload.Predicate{Name: name}
		for i := 0; i < 16; i++ {
			p.Clauses = append(p.Clauses, core.ClauseTerm{Head: term.New(name, term.Atom(fmt.Sprintf("n%d", i)), term.Int(int64(i)))})
		}
		ps = append(ps, p)
	}
	return ps
}

// noteWritePred is where the traced run's write layers write: note0/2.
var noteWritePred = core.Indicator{Functor: "note0", Arity: 2}

// noteFact renders write i of connection c into note<c>/2; writers past
// the client count (the traced run's layers) write into note0/2.
func noteFact(c, i int) string {
	p := c
	if p >= clients {
		p = 0
	}
	return fmt.Sprintf("note%d(w%dx%d, %d)", p, c, i, i)
}

// pointRouted is Warren's KB at scale 0.01 (30 predicates, 300 rules,
// 30k facts with skewed predicate sizes) split over two shard backends
// by cluster.ShardOf, queried through the router with predN(eK, V) in
// fs1+fs2, drawn from every key of every predicate — far more distinct
// goals than the 1024-entry query-encoding cache holds.
func pointRouted(seed int64, tiny bool) (*spec, error) {
	scale := 0.01
	if tiny {
		scale = 0.001
	}
	s := &spec{name: "point-routed", shards: 2, writePred: noteWritePred, writeFact: noteFact}
	warren := workload.WarrenKB{Scale: scale, Seed: seed}.Generate()
	s.preds = append(warren, notePreds()...)
	facts, rules := 0, 0
	keys := make([]int, len(warren))
	pool := 0
	for i, p := range warren {
		for _, cl := range p.Clauses {
			if cl.Body == nil {
				keys[i]++
			} else {
				rules++
			}
		}
		facts += keys[i]
		keys[i]++ // the generator draws keys e0..e<facts>
		pool += keys[i]
	}
	if err := checkShardSplit(s.preds, s.shards); err != nil {
		return nil, err
	}
	// Each goal picks a predicate uniformly, then one of its keys, so a
	// goal averages ~10 candidates (the predicate's rules plus ~1 fact);
	// the ~30k-goal pool overflows the query-encoding cache.
	rng := rand.New(rand.NewSource(seed))
	byText := map[string]*goal{}
	for len(s.reads) < 2*pool {
		i := rng.Intn(len(warren))
		text := fmt.Sprintf("%s(e%d, V)", warren[i].Name, rng.Intn(keys[i]))
		g := byText[text]
		if g == nil {
			var err error
			if g, err = newGoal(text, "fs1+fs2"); err != nil {
				return nil, err
			}
			byText[text] = g
			s.distinct = append(s.distinct, g)
		}
		s.reads = append(s.reads, g)
	}
	s.sizes = fmt.Sprintf("warren scale %g: %d predicates, %d rules, %d facts over %d shards; %d-goal pool, %d distinct goals in a %d-goal stream",
		scale, len(warren), rules, facts, s.shards, pool, len(s.distinct), len(s.reads))
	return s, nil
}

// checkShardSplit refuses a KB whose predicates all land on one shard —
// the router hop would then see a single backend.
func checkShardSplit(preds []workload.Predicate, shards int) error {
	seen := map[int]bool{}
	for _, p := range preds {
		seen[cluster.ShardOf(indicatorOf(p).String(), shards)] = true
	}
	if len(seen) < shards {
		return fmt.Errorf("predicates cover only %d of %d shards", len(seen), shards)
	}
	return nil
}

func indicatorOf(p workload.Predicate) core.Indicator {
	h := p.Clauses[0].Head
	if c, ok := h.(*term.Compound); ok {
		return core.Indicator{Functor: c.Functor, Arity: len(c.Args)}
	}
	return core.Indicator{Functor: p.Name}
}

// mcEvery spaces scan-direct's married_couple goals, and mcCouples sizes
// their predicate. At 10k couples one FS2 sweep holds the board about
// twice as long as a rel goal, so the tail (goals that run or wait behind
// a sweep) stays within a few times the median and retrieve_p99_us tracks
// the FS2 sweep time. At 50k couples a sweep took ~15 rel goals' time,
// and p99 swung with how often the two clients' sweeps collided.
const (
	mcEvery   = 16
	mcCouples = 10000
)

// scanDirect is rel/3 with 200k facts over 2000 keys plus married_couple/2
// with mcCouples couples (every 200th shares a name), served by one backend
// with no router. 63 goals rel(K, A, B) with fixed payload constants
// sweep every codeword in fs1+fs2 and leave ~no answers; one goal in
// mcEvery is the shared-variable married_couple(S, S) in fs2, which FS1
// cannot filter. 64 distinct goals fit the query-encoding cache.
func scanDirect(seed int64, tiny bool) (*spec, error) {
	facts, keys, couples, same := 200000, 2000, mcCouples, 200
	if tiny {
		facts, keys, couples, same = 4000, 40, 2000, 100
	}
	s := &spec{name: "scan-direct", writePred: noteWritePred, writeFact: noteFact}
	s.preds = append([]workload.Predicate{
		{Name: "rel", Clauses: workload.Relation{Name: "rel", Facts: facts, Domain: keys, Arity: 3, Seed: seed}.Clauses()},
		{Name: "married_couple", Clauses: workload.Family{Couples: couples, SameEvery: same}.Clauses()},
	}, notePreds()...)
	rng := rand.New(rand.NewSource(seed))
	used := map[[2]int]bool{}
	for len(s.distinct) < 63 {
		ab := [2]int{rng.Intn(1000), rng.Intn(1000)}
		if used[ab] {
			continue
		}
		used[ab] = true
		g, err := newGoal(fmt.Sprintf("rel(K, %d, %d)", ab[0], ab[1]), "fs1+fs2")
		if err != nil {
			return nil, err
		}
		s.distinct = append(s.distinct, g)
	}
	mc, err := newGoal("married_couple(S, S)", "fs2")
	if err != nil {
		return nil, err
	}
	s.distinct = append(s.distinct, mc)
	// 1 in mcEvery is the shared-variable goal, at seeded positions, so
	// the two clients' long FS2 sweeps collide at random rather than in
	// step.
	for i := 0; i < 1024; i++ {
		if i%mcEvery == 0 {
			s.reads = append(s.reads, mc)
		} else {
			s.reads = append(s.reads, s.distinct[(i-i/mcEvery-1)%63])
		}
	}
	rng.Shuffle(len(s.reads), func(i, j int) { s.reads[i], s.reads[j] = s.reads[j], s.reads[i] })
	s.sizes = fmt.Sprintf("rel/3 %d facts over %d keys, married_couple/2 %d couples (1 in %d same-name); 64 distinct goals, 1 in %d married_couple(S, S)",
		facts, keys, couples, same, mcEvery)
	return s, nil
}

// writeMix is rel/3 with 4096 facts over 512 keys on one WAL-backed
// primary (fsync always). Connection 0 loops WRITE assert then WRITE
// retract of a fresh fact, so the predicate's size stays level;
// connection 1 loops fs1+fs2 point reads rel(kK, A, B) on the same
// predicate.
func writeMix(seed int64, tiny bool) (*spec, error) {
	facts, keys := 4096, 512
	if tiny {
		facts, keys = 256, 32
	}
	s := &spec{name: "write-mix", wal: true, mixed: true, writePred: core.Indicator{Functor: "rel", Arity: 3},
		writeFact: func(c, i int) string { return fmt.Sprintf("rel(w%dx%d, %d, %d)", c, i, i%1000, i%7) }}
	s.preds = []workload.Predicate{
		{Name: "rel", Clauses: workload.Relation{Name: "rel", Facts: facts, Domain: keys, Arity: 3, Seed: seed}.Clauses()},
	}
	for k := 0; k < keys; k++ {
		g, err := newGoal(fmt.Sprintf("rel(k%d, A, B)", k), "fs1+fs2")
		if err != nil {
			return nil, err
		}
		s.distinct = append(s.distinct, g)
	}
	s.reads = append([]*goal(nil), s.distinct...)
	rand.New(rand.NewSource(seed)).Shuffle(len(s.reads), func(i, j int) { s.reads[i], s.reads[j] = s.reads[j], s.reads[i] })
	s.sizes = fmt.Sprintf("rel/3 %d facts over %d keys, WAL fsync=always; connection 0 writes, connection 1 reads %d distinct goals",
		facts, keys, len(s.distinct))
	return s, nil
}

// normClause canonicalises a clause's machine variable names (_G<id>,
// which depend on allocation order) to _V0, _V1, … by first appearance,
// so answers from different layers compare as text.
func normClause(s string) string {
	if !strings.Contains(s, "_G") {
		return s
	}
	var b strings.Builder
	names := map[string]string{}
	for i := 0; i < len(s); {
		if s[i] == '_' && i+2 < len(s) && s[i+1] == 'G' && isDigit(s[i+2]) && (i == 0 || !isIdent(s[i-1])) {
			j := i + 2
			for j < len(s) && isDigit(s[j]) {
				j++
			}
			v, ok := names[s[i:j]]
			if !ok {
				v = fmt.Sprintf("_V%d", len(names))
				names[s[i:j]] = v
			}
			b.WriteString(v)
			i = j
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdent(c byte) bool {
	return c == '_' || isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// sameAnswer reports whether a wire answer equals the reference.
func sameAnswer(got, ref []string) bool {
	if len(got) != len(ref) {
		return false
	}
	for i := range got {
		if got[i] != ref[i] && !sameClause(got[i], ref[i]) {
			return false
		}
	}
	return true
}

// sameClause compares a wire clause with a normalised reference clause
// without allocating: each _G<id> in got must line up with a _V<k> in
// ref, consistently in both directions.
func sameClause(got, ref string) bool {
	var names [16]string // names[k] is the _G token bound to _V<k>
	i, j := 0, 0
	for i < len(got) && j < len(ref) {
		if got[i] == '_' && i+2 < len(got) && got[i+1] == 'G' && isDigit(got[i+2]) && (i == 0 || !isIdent(got[i-1])) {
			if !strings.HasPrefix(ref[j:], "_V") {
				return false
			}
			a := i + 2
			for a < len(got) && isDigit(got[a]) {
				a++
			}
			b, k := j+2, 0
			for b < len(ref) && isDigit(ref[b]) {
				k = k*10 + int(ref[b]-'0')
				b++
			}
			if b == j+2 || k >= len(names) {
				return normClause(got) == ref
			}
			tok := got[i:a]
			if names[k] == "" {
				for _, n := range names {
					if n == tok {
						return false
					}
				}
				names[k] = tok
			} else if names[k] != tok {
				return false
			}
			i, j = a, b
			continue
		}
		if got[i] != ref[j] {
			return false
		}
		i++
		j++
	}
	return i == len(got) && j == len(ref)
}
