// Strict-warning compile check: pull every public header into one TU so
// the src/-only warning set (-Wshadow -Wextra-semi -Wnon-virtual-dtor,
// plus -Wthread-safety under clang) sweeps header-only code that the
// compiled mr/ library never instantiates. Test and bench targets keep
// the project-wide -Wall -Wextra only, so gtest/benchmark macros do not
// have to satisfy the stricter set.
#include "cachetrie/cache.hpp"
#include "cachetrie/cache_trie.hpp"
#include "cachetrie/config.hpp"
#include "cachetrie/evict.hpp"
#include "cachetrie/nodes.hpp"
#include "cachetrie/stats.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/thread_team.hpp"
#include "harness/workload.hpp"
#include "mr/epoch.hpp"
#include "mr/hazard.hpp"
#include "mr/leak.hpp"
#include "mr/reclaimer.hpp"
#include "net/client.hpp"
#include "net/proto.hpp"
#include "net/reactor.hpp"
#include "net/serve_map.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "obs/inventory.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"
#include "obs/trace_export.hpp"
#include "obs/tsc.hpp"
#include "skiplist/skiplist.hpp"
#include "testkit/adapter.hpp"
#include "testkit/chaos.hpp"
#include "testkit/driver.hpp"
#include "testkit/fault.hpp"
#include "testkit/history.hpp"
#include "testkit/lin_check.hpp"
#include "testkit/watchdog.hpp"
#include "util/bits.hpp"
#include "util/hashing.hpp"
#include "util/ordering_contracts.hpp"
#include "util/padded.hpp"
#include "util/rng.hpp"
#include "util/spinwait.hpp"
#include "util/thread_id.hpp"

#include <string>

namespace {

// Instantiate the main templates so their member functions are actually
// compiled under the strict flags, not just parsed.
template <class Map>
int touch() {
  Map m;
  m.insert(1, 2);
  int out = 0;
  if (auto v = m.lookup(1)) out += *v;
  m.remove(1);
  return out;
}

}  // namespace

// Compile every member of the serving-layer templates under the strict
// flags (nothing is constructed — no sockets open in this check).
template class cachetrie::net::Shard<
    cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t>>;
template class cachetrie::net::Server<
    cachetrie::evict::BoundedCacheTrie<std::uint64_t, std::uint64_t>>;
template class cachetrie::net::Shard<
    cachetrie::evict::BoundedChm<std::uint64_t, std::uint64_t>>;
template class cachetrie::net::Server<
    cachetrie::evict::BoundedChm<std::uint64_t, std::uint64_t>>;

int cachetrie_all_headers_check() {
  int out = 0;
  out += touch<cachetrie::CacheTrie<int, int>>();
  out += touch<cachetrie::ctrie::Ctrie<int, int>>();
  out += touch<cachetrie::chm::ConcurrentHashMap<int, int>>();
  out += touch<cachetrie::csl::ConcurrentSkipList<int, int>>();
  (void)cachetrie::util::kOrderingEdgeCount;
  return out;
}
