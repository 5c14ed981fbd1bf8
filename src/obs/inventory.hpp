// inventory.hpp — the process-wide metric inventory: one named handle per
// instrumentation site, declared in one place so DESIGN.md §2d, the tests
// and the JSON artifacts agree on names.
//
// Handles are namespace-scope `inline` variables: constructed once during
// static initialization (before any structure runs an operation), shared
// across translation units, and — because each handle is a single pointer
// into registry-owned storage (or an empty Null type when CACHETRIE_METRICS
// is off) — free to reference from hot paths.
//
// Naming convention: <layer>.<subsystem>.<event>, all lowercase.
//
// The mr/ epoch-domain counters are intentionally absent here: they remain
// owned by EpochDomain (epoch.cpp registers callback gauges mr.epoch.* so
// snapshots fold them in without double bookkeeping).
#pragma once

#include "obs/metrics.hpp"

namespace cachetrie::obs::sites {

// --- cachetrie: cache behaviour (paper §3.6, analysis report §4) -----------
// hit-rate = hit / (hit + lookup_slow); `hit` counts lookups answered
// through the cache (SNode fast path and ANode-entry path), `lookup_slow`
// counts lookups that fell through to a root descent (no cache, no entry,
// or a frozen/stale cached node).
inline Counter cachetrie_cache_hit{"cachetrie.cache.hit"};
inline Counter cachetrie_lookup_slow{"cachetrie.lookup.slow"};
/// Paper's per-lookup miss-counter increments (decrements are not counted:
/// the signal of interest is how much "miss pressure" the workload exerts).
inline Counter cachetrie_cache_miss{"cachetrie.cache.miss"};
inline Counter cachetrie_cache_install{"cachetrie.cache.install"};
inline Counter cachetrie_cache_level_change{"cachetrie.cache.level_change"};
inline Counter cachetrie_sampling_pass{"cachetrie.cache.sampling_pass"};

// --- cachetrie: structural / protocol events -------------------------------
inline Counter cachetrie_freeze{"cachetrie.freeze"};
inline Counter cachetrie_expand{"cachetrie.expand"};
inline Counter cachetrie_compress{"cachetrie.compress"};
/// Two-CAS txn protocol restarts: a competing announcement or commit forced
/// this thread to retry the level (§3.3).
inline Counter cachetrie_txn_retry{"cachetrie.txn.retry"};
inline Counter cachetrie_root_restart{"cachetrie.root.restart"};

// --- cachetrie: operation outcomes (drive the chaos-test invariant:
// insert_new - remove == size on a fresh trie after quiescence) ------------
inline Counter cachetrie_insert_new{"cachetrie.op.insert_new"};
inline Counter cachetrie_replace{"cachetrie.op.replace"};
inline Counter cachetrie_remove{"cachetrie.op.remove"};

// --- cachetrie: bounded-memory mode (DESIGN.md §3) -------------------------
// Evictions are linearizable removes performed by the eviction machinery
// rather than a user remove(); they are counted here, not in op.remove, so
// the chaos-test invariant above stays exact for unbounded tries and the
// TTL tests can assert evictions + expiries == pairs that vanished.
inline Counter cachetrie_evict_lru{"cachetrie.evict.lru"};
inline Counter cachetrie_evict_ttl{"cachetrie.evict.ttl"};
/// Ceiling backpressure: operations that entered an over-ceiling eviction
/// scan before doing their own work.
inline Counter cachetrie_evict_backpressure{"cachetrie.evict.backpressure"};

// --- cachetrie: distributions ----------------------------------------------
/// Pointer dereferences per lookup (cache hit == 1 for SNode entries, 2 for
/// ANode entries; slow lookups record their true walked depth). Every entry
/// point samples ~1/64 off its own counter's pre-add value, so the
/// histogram is an unbiased sample of the per-lookup depth distribution.
inline Histogram cachetrie_lookup_depth{"cachetrie.lookup.depth"};
/// Leaf levels (in trie levels, i.e. bits/4) seen by the miss-counter
/// sampling passes that drive cache growth.
inline Histogram cachetrie_sample_leaf_level{"cachetrie.sample.leaf_level"};

// --- ctrie ------------------------------------------------------------------
/// GCAS-equivalent root/main-node CAS failures that force a retry.
inline Counter ctrie_gcas_retry{"ctrie.gcas.retry"};
inline Counter ctrie_clean{"ctrie.clean"};
inline Counter ctrie_clean_parent{"ctrie.clean_parent"};

// --- chashmap ---------------------------------------------------------------
inline Counter chm_bin_lock{"chm.bin_lock"};
inline Counter chm_resize{"chm.resize"};
inline Counter chm_transfer_help{"chm.transfer.help"};
inline Counter chm_transfer_bin{"chm.transfer.bin"};

// --- skiplist ---------------------------------------------------------------
/// Cooperative helping: a thread marked an upper-level link on behalf of a
/// logically deleted node it encountered.
inline Counter csl_help_mark{"csl.help_mark"};
inline Counter csl_cas_retry{"csl.cas.retry"};

// --- net: serving layer (DESIGN.md §4) --------------------------------------
// The shed/deadline/backpressure triple is the overload-audit surface: a
// soak run where net.shed stays zero while latency grows means admission
// control is mis-tuned (queueing instead of shedding).
inline Counter net_accept{"net.accept"};
inline Counter net_conn_close{"net.conn.close"};
inline Counter net_request_served{"net.request.served"};
inline Counter net_shed{"net.shed"};
inline Counter net_deadline_expired{"net.deadline_expired"};
inline Counter net_backpressure_kill{"net.backpressure_kill"};
inline Counter net_proto_error{"net.proto_error"};
/// Replies stamped kFlagDegraded (map near its resident ceiling).
inline Counter net_degraded_replies{"net.degraded_replies"};
/// Currently open connections across all shards.
inline Gauge net_conns_open{"net.conns_open"};

// --- net: request-phase attribution (DESIGN.md §4). The three phases
// partition a served request's shard-side lifetime exactly: queue
// (admission -> dequeue), execute (map operation), flush (reply bytes
// accepted by the kernel). The per-shard view is the obs::LatencyHistogram
// set in net/shard.hpp; these registry copies exist so a kStats poll (and
// any snapshot) can see the decomposition. -------------------------------
inline Histogram net_phase_queue_us{"net.phase.queue_us"};
inline Histogram net_phase_execute_us{"net.phase.execute_us"};
inline Histogram net_phase_flush_us{"net.phase.flush_us"};
/// kStats/kTraceCtl requests served (the introspection surface's own use).
inline Counter net_introspect_ops{"net.introspect.ops"};

}  // namespace cachetrie::obs::sites
