package engine

import (
	"container/list"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/optimizer"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
)

// CacheMode selects how aggressively the engine reuses cached plans.
type CacheMode int32

const (
	// CacheExact (the default) serves a cached plan only when a fresh
	// optimization would provably return the identical Result: same
	// statement template, same literal bindings, and unchanged physical
	// configuration, statistics epoch, and table/index sizes. Every
	// recorded experiment therefore produces byte-identical output with
	// the cache on or off — the cache only removes redundant work.
	CacheExact CacheMode = iota
	// CacheRebind additionally reuses a cached Generic plan for a
	// statement with the same template but different literals,
	// substituting the new bindings into a clone of the plan
	// (generic-plan semantics: results are exact, cost estimates are
	// cheap ratio re-costs, and the access path is the one chosen for
	// the original literals).
	CacheRebind
	// CacheOff disables both tiers; every statement is optimized fresh.
	CacheOff
)

const (
	planShards   = 8
	planShardCap = 64 // per shard; 512 cached plans total
	stmtShardCap = 64 // per shard; 512 parsed statements total
)

// PlanCacheStats are the cache's observability counters.
type PlanCacheStats struct {
	Hits          int64 // exact plan hits (optimizer skipped)
	RebindHits    int64 // generic-plan reuses with literal substitution
	Misses        int64 // lookups that fell through to the optimizer
	Invalidations int64 // entries dropped on a config/stats epoch change
	Evictions     int64 // entries dropped by LRU capacity
	StmtHits      int64 // statement-text hits (parser + fingerprint skipped)
}

// planEntry is one cached optimization, valid for the exact
// (configVersion, statsEpoch, sizeSig) it was computed under. The
// stored Result's plan shares expression nodes with the fingerprinted
// statement's AST, so lits give literal slots by pointer identity for
// rebinding. Entries are immutable after insertion; all fields are read
// under the shard lock or from the (read-only) Result.
type planEntry struct {
	hash       uint64 // exactKey: template hash mixed with the bindings
	fpHash     uint64 // template hash alone (the rebind tier's key)
	template   string
	bindings   []datum.Datum
	lits       []*sql.Literal
	res        *optimizer.Result
	cfgVersion int64
	statsEpoch int64
	sizeSig    uint64
	rules      optimizer.Rules
}

// planShard is one LRU of the plan tier. byHash holds the entries whose
// exact key maps to this shard; generic holds, for the templates whose
// hash maps here, the latest stored Generic entry (which may live in
// another shard's LRU) so CacheRebind can find a plan by template.
// Code never holds two shard locks at once.
type planShard struct {
	mu      sync.Mutex
	ll      *list.List // front = most recently used
	byHash  map[uint64]*list.Element
	generic map[uint64]*planEntry
}

// stmtEntry caches one parsed statement text: the AST plus its
// fingerprint (nil for non-cacheable statements). Both are immutable
// and shared read-only across executions.
type stmtEntry struct {
	text string
	stmt sql.Statement
	fp   *sql.Fingerprint
}

type stmtShard struct {
	mu     sync.Mutex
	ll     *list.List
	byText map[string]*list.Element
}

// planCache is the engine's two-tier statement cache: a statement-text
// tier (text → parsed AST + fingerprint) and a plan tier ((template,
// bindings) → optimizer Result keyed by configVersion/statsEpoch/sizes).
// Both tiers are sharded LRUs safe for concurrent statements.
type planCache struct {
	mode  atomic.Int32
	plans [planShards]planShard
	stmts [planShards]stmtShard

	// The counters ARE the registry's metrics (not mirrors of them):
	// PlanCacheStats and the obs snapshot read the same atomics, so the
	// two views reconcile exactly by construction.
	hits          *obs.Counter
	rebindHits    *obs.Counter
	misses        *obs.Counter
	invalidations *obs.Counter
	evictions     *obs.Counter
	stmtHits      *obs.Counter
}

func newPlanCache(reg *obs.Registry) *planCache {
	pc := &planCache{
		hits:          reg.Counter("plancache.hits"),
		rebindHits:    reg.Counter("plancache.rebind_hits"),
		misses:        reg.Counter("plancache.misses"),
		invalidations: reg.Counter("plancache.invalidations"),
		evictions:     reg.Counter("plancache.evictions"),
		stmtHits:      reg.Counter("plancache.stmt_hits"),
	}
	for i := range pc.plans {
		pc.plans[i].ll = list.New()
		pc.plans[i].byHash = make(map[uint64]*list.Element)
		pc.plans[i].generic = make(map[uint64]*planEntry)
	}
	for i := range pc.stmts {
		pc.stmts[i].ll = list.New()
		pc.stmts[i].byText = make(map[string]*list.Element)
	}
	return pc
}

// SetPlanCacheMode switches the plan cache mode at runtime.
func (db *DB) SetPlanCacheMode(m CacheMode) { db.pc.mode.Store(int32(m)) }

// PlanCacheMode returns the current plan cache mode.
func (db *DB) PlanCacheMode() CacheMode { return CacheMode(db.pc.mode.Load()) }

// PlanCacheStats returns a snapshot of the cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          db.pc.hits.Value(),
		RebindHits:    db.pc.rebindHits.Value(),
		Misses:        db.pc.misses.Value(),
		Invalidations: db.pc.invalidations.Value(),
		Evictions:     db.pc.evictions.Value(),
		StmtHits:      db.pc.stmtHits.Value(),
	}
}

// cacheable reports whether a statement's optimization may be cached.
// INSERTs are excluded: every insert changes the table size, so an
// exact hit could never validate — caching them only pollutes slots.
func cacheable(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.Select, *sql.Update, *sql.Delete:
		return true
	}
	return false
}

func textShard(text string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(text))
	return h.Sum64()
}

// lookupStmt returns the cached parse of a statement text, or nil.
func (pc *planCache) lookupStmt(text string) *stmtEntry {
	sh := &pc.stmts[textShard(text)%planShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byText[text]
	if !ok {
		return nil
	}
	sh.ll.MoveToFront(el)
	pc.stmtHits.Inc()
	return el.Value.(*stmtEntry)
}

func (pc *planCache) storeStmt(e *stmtEntry) {
	sh := &pc.stmts[textShard(e.text)%planShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byText[e.text]; ok {
		el.Value = e
		sh.ll.MoveToFront(el)
		return
	}
	sh.byText[e.text] = sh.ll.PushFront(e)
	if sh.ll.Len() > stmtShardCap {
		back := sh.ll.Back()
		delete(sh.byText, back.Value.(*stmtEntry).text)
		sh.ll.Remove(back)
	}
}

// exactKey is the plan tier's key: the template hash mixed with a hash
// of the literal bindings, so each (template, bindings) pair owns its
// own entry. bindingsEqual guards against key collisions.
func exactKey(fp *sql.Fingerprint) uint64 {
	return (fp.Hash ^ datum.Row(fp.Bindings).Hash()) * 1099511628211
}

// lookupPlan probes the plan tier. cfgV/statsE/sizeSig are the caller's
// freshly captured validity tokens; a matching entry from an older
// epoch is dropped (counted as an invalidation). Exact hits return a
// shallow copy of the cached Result flagged FromCache; in CacheRebind
// mode a Generic entry of the same template additionally serves other
// bindings through Optimizer.Rebind.
func (db *DB) lookupPlan(fp *sql.Fingerprint, mode CacheMode, cfgV, statsE int64, sizeSig uint64, rules optimizer.Rules) *optimizer.Result {
	pc := db.pc
	key := exactKey(fp)
	sh := &pc.plans[key%planShards]
	sh.mu.Lock()
	if el, ok := sh.byHash[key]; ok {
		e := el.Value.(*planEntry)
		switch {
		case e.template != fp.Template || !bindingsEqual(e.bindings, fp.Bindings):
			// Key collision: fall through as a miss.
		case !e.current(cfgV, statsE, rules):
			sh.ll.Remove(el)
			delete(sh.byHash, key)
			sh.mu.Unlock()
			pc.forgetGeneric(e)
			pc.invalidations.Inc()
			pc.misses.Inc()
			return nil
		case e.sizeSig == sizeSig:
			sh.ll.MoveToFront(el)
			sh.mu.Unlock()
			pc.hits.Inc()
			out := *e.res
			out.FromCache = true
			return &out
		}
	}
	sh.mu.Unlock()
	if mode == CacheRebind {
		if out := db.rebindPlan(fp, cfgV, statsE, rules); out != nil {
			pc.rebindHits.Inc()
			return out
		}
	}
	pc.misses.Inc()
	return nil
}

// current reports whether the entry was computed under the caller's
// configuration version, statistics epoch and rule set. The rule set is
// part of the key: a plan optimized under one setting must never serve
// a statement running under another.
func (e *planEntry) current(cfgV, statsE int64, rules optimizer.Rules) bool {
	return e.cfgVersion == cfgV && e.statsEpoch == statsE && e.rules == rules
}

// rebindPlan serves a statement from the latest Generic entry of its
// template by substituting its bindings, or returns nil.
func (db *DB) rebindPlan(fp *sql.Fingerprint, cfgV, statsE int64, rules optimizer.Rules) *optimizer.Result {
	sh := &db.pc.plans[fp.Hash%planShards]
	sh.mu.Lock()
	e := sh.generic[fp.Hash]
	sh.mu.Unlock()
	if e == nil || e.template != fp.Template || !e.current(cfgV, statsE, rules) {
		return nil
	}
	out, ok := db.Opt.Rebind(e.res, e.lits, fp.Bindings)
	if !ok {
		return nil
	}
	return out
}

func (pc *planCache) storePlan(e *planEntry) {
	// Publish the rebind pointer before the entry enters the LRU, so an
	// eviction of e always runs its forgetGeneric after this store.
	if e.res != nil && e.res.Generic {
		gsh := &pc.plans[e.fpHash%planShards]
		gsh.mu.Lock()
		gsh.generic[e.fpHash] = e
		gsh.mu.Unlock()
	}
	sh := &pc.plans[e.hash%planShards]
	sh.mu.Lock()
	var dropped *planEntry
	if el, ok := sh.byHash[e.hash]; ok {
		dropped = el.Value.(*planEntry)
		el.Value = e
		sh.ll.MoveToFront(el)
	} else {
		sh.byHash[e.hash] = sh.ll.PushFront(e)
		if sh.ll.Len() > planShardCap {
			back := sh.ll.Back()
			dropped = back.Value.(*planEntry)
			delete(sh.byHash, dropped.hash)
			sh.ll.Remove(back)
			pc.evictions.Inc()
		}
	}
	sh.mu.Unlock()
	if dropped != nil {
		pc.forgetGeneric(dropped)
	}
}

// forgetGeneric drops the template's rebind pointer when it still names
// an entry that left the LRU, so the pointers never outnumber the
// cached entries.
func (pc *planCache) forgetGeneric(e *planEntry) {
	sh := &pc.plans[e.fpHash%planShards]
	sh.mu.Lock()
	if sh.generic[e.fpHash] == e {
		delete(sh.generic, e.fpHash)
	}
	sh.mu.Unlock()
}

func bindingsEqual(a, b []datum.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sizeSigFor hashes the physical sizes an optimization of stmt depends
// on: heap rows/pages of every referenced table plus the identity and
// page count of each of its active secondary indexes. Together with
// configVersion and statsEpoch this pins every input of the optimizer,
// making an exact cache hit equivalent to re-running it.
func (db *DB) sizeSigFor(stmt sql.Statement) uint64 {
	reads, writes := db.lockTablesFor(stmt)
	names := make([]string, 0, len(reads)+len(writes))
	for _, t := range reads {
		names = append(names, strings.ToLower(t))
	}
	for _, t := range writes {
		names = append(names, strings.ToLower(t))
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	prev := ""
	for _, t := range names {
		if t == prev {
			continue
		}
		prev = t
		h.Write([]byte(t))
		h.Write([]byte{0xff})
		if hp := db.Mgr.Heap(t); hp != nil {
			put(uint64(hp.Len()))
			put(uint64(hp.Pages()))
		}
		for _, pi := range db.Mgr.TableIndexes(t) {
			if pi.Def.Primary || pi.State() != storage.StateActive {
				continue
			}
			h.Write([]byte(pi.Def.ID()))
			h.Write([]byte{0xfe})
			put(uint64(pi.Pages()))
		}
	}
	return h.Sum64()
}

// optimizeMaybeCached is the cache-aware optimizer entry point for the
// statement hot path. fpp threads a lazily computed fingerprint so one
// execution (including its stale-index retries) fingerprints at most
// once, and so Exec's statement-text tier can hand in a precomputed one.
func (db *DB) optimizeMaybeCached(stmt sql.Statement, fpp **sql.Fingerprint) (*optimizer.Result, error) {
	mode := db.PlanCacheMode()
	if mode == CacheOff || !cacheable(stmt) {
		return db.Opt.Optimize(stmt)
	}
	if *fpp == nil {
		f := sql.FingerprintOf(stmt)
		*fpp = &f
	}
	fp := *fpp
	cfgV := db.Mgr.ConfigVersion()
	statsE := db.Stats.Epoch()
	sizeSig := db.sizeSigFor(stmt)
	rules := db.Opt.Rules()
	if res := db.lookupPlan(fp, mode, cfgV, statsE, sizeSig, rules); res != nil {
		return res, nil
	}
	res, err := db.Opt.Optimize(stmt)
	if err != nil {
		return nil, err
	}
	// Store only when no physical, statistics or rule-set change raced
	// with the optimization: the counters are monotonic, so equality
	// means the Result still describes the state the validity tokens
	// name.
	if db.Mgr.ConfigVersion() == cfgV && db.Stats.Epoch() == statsE && db.Opt.Rules() == rules {
		db.pc.storePlan(&planEntry{
			hash:       exactKey(fp),
			fpHash:     fp.Hash,
			template:   fp.Template,
			bindings:   fp.Bindings,
			lits:       fp.Lits,
			res:        res,
			cfgVersion: cfgV,
			statsEpoch: statsE,
			sizeSig:    sizeSig,
			rules:      rules,
		})
	}
	return res, nil
}

// cacheMarker renders the provenance line ExplainString and EXPLAIN
// prepend to plan output.
func cacheMarker(res *optimizer.Result) string {
	switch {
	case res.Rebound:
		return "-- plan: cached (rebound)"
	case res.FromCache:
		return "-- plan: cached (exact)"
	default:
		return "-- plan: fresh"
	}
}

// ruleMarkers renders one "-- rule: <name>" provenance line per rewrite
// rule the optimizer applied to this plan, in canonical rule order.
func ruleMarkers(res *optimizer.Result) []string {
	out := make([]string, 0, len(res.RulesApplied))
	for _, name := range res.RulesApplied {
		out = append(out, "-- rule: "+name)
	}
	return out
}
