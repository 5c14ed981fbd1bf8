// embedded.cpp — embedded_read and embedded_churn: T closed-loop threads
// (T = nproc / 2) calling an in-process CacheTrie<u64, u64>.
//
// Each thread replays a pre-generated op stream (keys and op kinds drawn
// from the seed before any timing starts), so the timed loop does nothing
// but call the map and check the answer. Every answer is checked: values
// carry their key's tag (common.hpp), misses must miss, churn inserts must
// find the key absent and removes must find it present. After the run the
// trie must pass debug_validate() and agree with the benchmark's own record
// of which keys are live.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "common.hpp"
#include "metrics.hpp"
#include "mr/epoch.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using Trie = cachetrie::CacheTrie<u64, u64>;
namespace tsc = cachetrie::obs::tsc;

constexpr std::size_t kReadKeys = 1u << 20;   // embedded_read: live keys
constexpr std::size_t kChurnKeys = 2u << 20;  // embedded_churn: keyspace
constexpr std::size_t kStreamLen = 1u << 20;  // ops per thread, replayed
constexpr u64 kSampleMask = 31;               // latency: one op in 32
constexpr int kSetups = 3;                    // setup_s is their median
constexpr double kWarmupS = 0.5;
// Traced run: one hash block and one pin block per kBlockEvery ops.
constexpr u64 kBlockEvery = 4096;
constexpr std::size_t kHashBlock = 256;
constexpr std::size_t kPinBlock = 64;
constexpr std::size_t kSpanCap = 1u << 19;  // per thread

enum OpKind : std::uint8_t { kHit = 0, kMiss = 1, kOverwrite = 2, kToggle = 3 };

/// T: half the CPUs this process may use, at least one. On the 4-vCPU VM
/// this was built on, the host takes back a varying share of each vCPU once
/// more than two are busy (4 threads kept 54-93% of their CPU time from run
/// to run, 2 threads 99%), and with it the contention the trie sees: churn
/// p99 moved 4.5-7.1 us with the host's load at T = 4.
unsigned thread_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned n = std::thread::hardware_concurrency();
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    n = static_cast<unsigned>(CPU_COUNT(&set));
  }
  return n < 2 ? 1 : n / 2;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<std::uint32_t> shuffled(std::size_t n, u64 seed) {
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint32_t>(i);
  cachetrie::util::SplitMix64 rng(seed);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(v[i], v[rng.next() % (i + 1)]);
  }
  return v;
}

/// One thread's pre-generated ops: the key, its kind, and (churn) its
/// index in the keyspace, which the thread alone owns.
struct Stream {
  std::vector<u64> keys;
  std::vector<std::uint8_t> kinds;
  std::vector<std::uint32_t> index;
};

struct alignas(64) ThreadOut {
  u64 ops = 0;          // measured window only
  double cpu_s = 0.0;   // thread CPU time over the measured window
  u64 attempted = 0;    // whole run (warm-up included)
  u64 failed = 0;       // whole run
  u64 lookups = 0;      // measured window
  u64 found = 0;        // measured window: lookups/removes that found a key
  u64 probes = 0;       // measured window: lookups/removes issued
  std::vector<std::uint32_t> lat_ticks;
  std::unique_ptr<SpanBuffer> spans;
};

/// The state one workload instance needs: its trie, its streams, and for
/// churn the live bit of every key.
struct Instance {
  std::unique_ptr<Trie> trie;
  std::vector<std::uint8_t> live;  // churn only; one slice per thread
};

class Embedded {
 public:
  Embedded(const Options& opt, bool churn)
      : opt_(opt), churn_(churn), keys_(opt.seed), threads_(thread_count()) {
    make_streams();
  }

  void run(Result& r) {
    tsc::calibration();
    if (!opt_.trace) {
      run_untraced(r);
    } else {
      run_traced(r);
    }
  }

 private:
  // --- inputs -----------------------------------------------------------

  void make_streams() {
    streams_.resize(threads_);
    for (unsigned t = 0; t < threads_; ++t) {
      cachetrie::util::SplitMix64 rng(opt_.seed * 0x9e3779b97f4a7c15ULL +
                                      1000003ULL * (t + 1));
      Stream& s = streams_[t];
      s.keys.resize(kStreamLen);
      s.kinds.resize(kStreamLen);
      if (churn_) s.index.resize(kStreamLen);
      // Churn: thread t owns one contiguous slice of the keyspace, so no
      // two threads ever write the same cache line of the live set.
      const std::size_t chunk = (kChurnKeys + threads_ - 1) / threads_;
      const std::size_t lo = std::min<std::size_t>(t * chunk, kChurnKeys);
      const std::size_t owned = std::min(chunk, kChurnKeys - lo);
      for (std::size_t i = 0; i < kStreamLen; ++i) {
        if (!churn_) {
          const u64 pick = rng.next() % 100;
          const u64 idx = rng.next() % kReadKeys;
          if (pick < 90) {
            s.kinds[i] = kHit;
            s.keys[i] = keys_.key(idx);
          } else if (pick < 95) {
            s.kinds[i] = kMiss;
            s.keys[i] = keys_.key(kReadKeys + idx);
          } else {
            s.kinds[i] = kOverwrite;
            s.keys[i] = keys_.key(idx);
          }
        } else {
          const u64 idx = lo + rng.next() % owned;
          s.kinds[i] = kToggle;
          s.index[i] = static_cast<std::uint32_t>(idx);
          s.keys[i] = keys_.key(idx);
        }
      }
    }
  }

  // --- set-up -------------------------------------------------------------

  /// Builds and prefills a trie; returns the seconds it took.
  double setup(Instance& inst, bool collect_stats) {
    inst.trie.reset();
    cachetrie::Config cfg;
    cfg.collect_stats = collect_stats;
    const std::size_t space = churn_ ? kChurnKeys : kReadKeys;
    const std::size_t fill = churn_ ? kChurnKeys / 2 : kReadKeys;
    const auto order = shuffled(space, opt_.seed ^ 0x5bd1e995ULL);
    inst.live.assign(churn_ ? kChurnKeys : 0, 0);
    const double t0 = now_s();
    inst.trie = std::make_unique<Trie>(cfg);
    for (std::size_t i = 0; i < fill; ++i) {
      const u64 k = keys_.key(order[i]);
      inst.trie->insert(k, value_for(k, 0));
    }
    const double dt = now_s() - t0;
    if (churn_) {
      for (std::size_t i = 0; i < fill; ++i) inst.live[order[i]] = 1;
    }
    return dt;
  }

  // --- the closed loop ----------------------------------------------------

  template <bool kTraced>
  void worker(unsigned t, Instance& inst, ThreadOut& out) {
    const Stream& s = streams_[t];
    Trie& trie = *inst.trie;
    std::uint8_t* live = inst.live.data();
    SpanBuffer* spans = out.spans.get();
    std::uint32_t version = 0;
    std::size_t pos = (static_cast<std::size_t>(t) * 7919) % kStreamLen;
    int seen_phase = 0;
    u64 n = 0;
    bool measuring = false;
    while (true) {
      for (int b = 0; b < 256; ++b, ++n) {
        const std::size_t i = pos;
        pos = pos + 1 == kStreamLen ? 0 : pos + 1;
        const u64 k = s.keys[i];
        const bool sample = !kTraced && (n & kSampleMask) == 0;
        const u64 t0 = (kTraced || sample) ? tsc::now() : 0;
        bool ok = false;
        bool found = false;
        SpanKind kind = SpanKind::kLookup;
        switch (s.kinds[i]) {
          case kHit: {
            const auto v = trie.lookup(k);
            found = v.has_value();
            ok = found && value_matches(k, *v);
            break;
          }
          case kMiss:
            found = trie.lookup(k).has_value();
            ok = !found;
            break;
          case kOverwrite:
            kind = SpanKind::kInsert;
            ok = !trie.insert(k, value_for(k, ++version));
            break;
          default: {  // kToggle: insert an absent key or remove a live one
            std::uint8_t& bit = live[s.index[i]];
            if (bit != 0) {
              kind = SpanKind::kRemove;
              const auto v = trie.remove(k);
              found = v.has_value();
              ok = found && value_matches(k, *v);
              bit = 0;
            } else {
              kind = SpanKind::kInsert;
              ok = trie.insert(k, value_for(k, ++version));
              bit = 1;
            }
            break;
          }
        }
        if constexpr (kTraced) {
          if (measuring) spans->record(kind, t0, tsc::now());
        } else if (sample && measuring) {
          const u64 dt = tsc::now() - t0;
          out.lat_ticks.push_back(
              dt > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(dt));
        }
        out.failed += ok ? 0 : 1;
        if (measuring) {
          const bool probe = kind != SpanKind::kInsert;
          out.probes += probe ? 1 : 0;
          out.found += found ? 1 : 0;
          out.lookups += kind == SpanKind::kLookup ? 1 : 0;
        }
        if constexpr (kTraced) {
          if (measuring && (n & (kBlockEvery - 1)) == 0) {
            time_blocks(s, i, *spans);
          }
        }
      }
      out.attempted += 256;
      if (measuring) out.ops += 256;
      const int ph = phase_.load(std::memory_order_acquire);
      if (ph != seen_phase) {
        seen_phase = ph;
        if (measuring) out.cpu_s += thread_cpu_s();
        if (ph == 2) break;
        measuring = ph == 1;
        if (measuring) out.cpu_s -= thread_cpu_s();
      }
    }
  }

  /// util and mr are called inside every trie op; the benchmark times them
  /// on their own by calling their public entry points over a block.
  static void time_blocks(const Stream& s, std::size_t at, SpanBuffer& spans) {
    const cachetrie::util::DefaultHash<u64> hash;
    u64 acc = 0;
    const std::size_t base = at + kHashBlock <= kStreamLen ? at : 0;
    const u64 h0 = tsc::now();
    for (std::size_t j = 0; j < kHashBlock; ++j) acc ^= hash(s.keys[base + j]);
    const u64 h1 = tsc::now();
    asm volatile("" : : "r"(acc) : "memory");
    spans.record(SpanKind::kHashBlock, h0, h1, 0, kHashBlock);
    auto& domain = cachetrie::mr::EpochDomain::instance();
    const u64 p0 = tsc::now();
    for (std::size_t j = 0; j < kPinBlock; ++j) {
      auto guard = domain.pin();
      asm volatile("" : : : "memory");
    }
    const u64 p1 = tsc::now();
    spans.record(SpanKind::kPinBlock, p0, p1, 0, kPinBlock);
  }

  struct Window {
    double seconds = 0.0;
    std::vector<ThreadOut> outs;
    Counters begin, end;  // at the measured window's edges
    std::size_t limbo_peak = 0;
  };

  /// Runs the threads through warm-up, a `seconds` measured window, and
  /// stop; the calling thread keeps time (and samples limbo when traced).
  template <bool kTraced>
  Window measure(Instance& inst, double seconds) {
    Window w;
    w.outs.resize(threads_);
    for (unsigned t = 0; t < threads_; ++t) {
      if (kTraced) {
        w.outs[t].spans =
            std::make_unique<SpanBuffer>(kSpanCap, static_cast<std::uint8_t>(t));
      } else {
        w.outs[t].lat_ticks.reserve(1u << 20);
      }
    }
    phase_.store(0, std::memory_order_release);
    std::vector<std::thread> pool;
    pool.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t) {
      pool.emplace_back([this, t, &inst, &w] {
        worker<kTraced>(t, inst, w.outs[t]);
      });
    }
    auto& domain = cachetrie::mr::EpochDomain::instance();
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
    w.begin = Counters::read(inst.trie->stats());
    const double t0 = now_s();
    phase_.store(1, std::memory_order_release);
    const double end = t0 + seconds;
    while (now_s() < end) {
      if (kTraced) {
        w.limbo_peak = std::max(w.limbo_peak, domain.retired_bytes());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kTraced ? 1 : 20));
    }
    phase_.store(2, std::memory_order_release);
    w.seconds = now_s() - t0;
    w.end = Counters::read(inst.trie->stats());
    for (auto& th : pool) th.join();
    return w;
  }

  // --- checks after the run ----------------------------------------------

  void verify(const Instance& inst, Result& r) {
    const Trie& trie = *inst.trie;
    const auto issues = trie.debug_validate();
    if (!issues.empty()) {
      r.fail("debug_validate: " + std::to_string(issues.size()) +
             " issue(s), first: " + issues.front());
    }
    const std::size_t expect = churn_ ? 0 : kReadKeys;
    std::size_t live = 0;
    if (churn_) {
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < kChurnKeys; ++i) {
        const u64 k = keys_.key(i);
        const auto v = trie.lookup(k);
        const bool want = inst.live[i] != 0;
        live += want ? 1 : 0;
        if (v.has_value() != want || (v && !value_matches(k, *v))) ++wrong;
      }
      if (wrong != 0) {
        r.fail(std::to_string(wrong) + " churn keys disagree with the live set");
      }
    }
    const std::size_t size = trie.size();
    const std::size_t want_size = churn_ ? live : expect;
    if (size != want_size) {
      r.fail("size() " + std::to_string(size) + " != expected " +
             std::to_string(want_size));
    }
  }

  void tally(const Window& w, Result& r) {
    for (const auto& o : w.outs) {
      r.attempted += o.attempted;
      r.failed += o.failed;
    }
    if (r.failed != 0) {
      r.fail(std::to_string(r.failed) + " embedded op(s) returned a wrong answer");
    }
  }

  static u64 sum_ops(const Window& w) {
    u64 n = 0;
    for (const auto& o : w.outs) n += o.ops;
    return n;
  }

  /// Each thread's ops over the CPU time it actually got, summed: what T
  /// threads complete per second while they run. The host this was built
  /// on takes back up to a third of each busy vCPU, and wall-clock ops/s
  /// followed its load rather than the program; a closed loop over a
  /// lock-free map never blocks, so its CPU time is its running time.
  static double ops_per_cpu_s(const Window& w) {
    double sum = 0.0;
    for (const auto& o : w.outs) {
      if (o.cpu_s > 0) sum += static_cast<double>(o.ops) / o.cpu_s;
    }
    return sum;
  }

  static double cpu_share(const Window& w) {
    double cpu = 0.0;
    for (const auto& o : w.outs) cpu += o.cpu_s;
    return cpu / (w.seconds * static_cast<double>(w.outs.size()));
  }

  // --- the two runs -------------------------------------------------------

  void run_untraced(Result& r) {
    Instance inst;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) setups.push_back(setup(inst, false));
    const Window w = measure<false>(inst, opt_.seconds);
    tally(w, r);
    verify(inst, r);

    const u64 ops = sum_ops(w);
    const double ops_per_s = ops_per_cpu_s(w);
    std::vector<double> lat;
    u64 probes = 0, found = 0;
    for (const auto& o : w.outs) {
      for (std::uint32_t t : o.lat_ticks) lat.push_back(tsc::to_ns(t) / 1000.0);
      probes += o.probes;
      found += o.found;
    }
    const std::size_t n = lat.size();
    const double tail = supported_tail(n);
    const Quantile p50 = percentile(lat, 0.5);
    const Quantile p90 = percentile(lat, 0.9);
    const Quantile p99 = percentile(lat, 0.99);
    const Quantile pt = percentile(lat, tail);
    const Quantile setup_med = percentile(setups, 0.5);
    const std::size_t size = inst.trie->size();

    r.metric("setup_s", setup_med.value, "s");
    r.metric("ops_per_s", ops_per_s, "ops/s");
    r.metric("latency_p50_us", p50.value, "us");
    r.metric("latency_p90_us", p90.value, "us");
    // In a closed loop every op completes as soon as the map returns, so
    // the highest rate the caller can sustain is the completion rate.
    r.metric("max_rate_rps", ops_per_s, "req/s");
    r.metric("ok_ratio",
             1.0 - static_cast<double>(r.failed) /
                       static_cast<double>(std::max<u64>(r.attempted, 1)),
             "ratio");
    r.metric("hit_ratio",
             probes == 0 ? 0.0
                         : static_cast<double>(found) /
                               static_cast<double>(probes),
             "ratio");
    r.metric("bytes_per_key",
             static_cast<double>(inst.trie->footprint_bytes()) /
                 static_cast<double>(std::max<std::size_t>(size, 1)),
             "B");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");

    r.info["threads"] = threads_;
    r.info["ops"] = static_cast<double>(ops);
    r.info["window_s"] = w.seconds;
    r.info["wall_ops_per_s"] = static_cast<double>(ops) / w.seconds;
    r.info["cpu_share"] = cpu_share(w);
    r.info["latency_samples"] = static_cast<double>(n);
    r.info["latency_p99_us"] = p99.value;
    r.info["latency_tail_percentile"] = tail * 100.0;
    r.info["latency_tail_us"] = pt.value;
    r.info["fail_ratio"] = static_cast<double>(r.failed) /
                           static_cast<double>(std::max<u64>(r.attempted, 1));
    r.info["size"] = static_cast<double>(size);
    for (int i = 0; i < kSetups; ++i) {
      r.info["setup_s." + std::to_string(i)] = setups[static_cast<std::size_t>(i)];
    }
    std::printf("%s: T=%u ops=%llu ops/cpu-s=%.0f (wall %.0f, cpu share %.2f) "
                "p50=%.3fus p90=%.3fus p99=%.3fus p%.6g=%.3fus (n=%zu) "
                "setup=%.3fs\n",
                opt_.workload.c_str(), threads_,
                static_cast<unsigned long long>(ops), ops_per_s,
                static_cast<double>(ops) / w.seconds, cpu_share(w), p50.value,
                p90.value, p99.value, tail * 100.0, pt.value, n,
                setup_med.value);
  }

  void run_traced(Result& r) {
    const double half = opt_.seconds / 2.0;
    double untraced_ops_per_s = 0.0;
    {
      Instance plain;
      setup(plain, false);
      const Window w = measure<false>(plain, half);
      tally(w, r);
      verify(plain, r);
      untraced_ops_per_s = ops_per_cpu_s(w);
    }
    Instance inst;
    setup(inst, /*collect_stats=*/true);
    const Window w = measure<true>(inst, half);
    tally(w, r);
    verify(inst, r);

    const u64 ops = sum_ops(w);
    const double traced_ops_per_s = ops_per_cpu_s(w);
    std::vector<const SpanBuffer*> bufs;
    u64 lookups = 0;
    for (const auto& o : w.outs) {
      bufs.push_back(o.spans.get());
      lookups += o.lookups;
    }
    auto q = [&](SpanKind k, double p, bool per_item = false) {
      auto v = durations_ns(bufs, k, per_item);
      return percentile(v, p).value;
    };
    r.metric("util.hash_ns", q(SpanKind::kHashBlock, 0.5, true), "ns");
    r.metric("mr.pin_ns", q(SpanKind::kPinBlock, 0.5, true), "ns");
    r.metric("cachetrie.lookup_ns_p50", q(SpanKind::kLookup, 0.5), "ns");
    r.metric("cachetrie.lookup_ns_p99", q(SpanKind::kLookup, 0.99), "ns");
    r.metric("cachetrie.insert_ns_p50", q(SpanKind::kInsert, 0.5), "ns");
    r.metric("cachetrie.insert_ns_p99", q(SpanKind::kInsert, 0.99), "ns");
    r.metric("cachetrie.remove_ns_p50", q(SpanKind::kRemove, 0.5), "ns");
    r.metric("cachetrie.remove_ns_p99", q(SpanKind::kRemove, 0.99), "ns");
    const Trie& trie = *inst.trie;
    r.metric("cachetrie.cache_level", trie.cache_level(), "level");
    r.metric("cachetrie.top_pair_share", trie.level_histogram().top_pair_share(),
             "ratio");
    report_counters(r, w.begin, w.end, static_cast<double>(ops),
                    static_cast<double>(lookups));
    r.metric("mr.limbo_peak_mb",
             static_cast<double>(w.limbo_peak) / (1024.0 * 1024.0), "MB");
    r.metric("obs.trace_overhead_ratio",
             untraced_ops_per_s > 0 ? traced_ops_per_s / untraced_ops_per_s
                                    : 0.0,
             "ratio");

    std::size_t kept = 0;
    for (const SpanBuffer* b : bufs) kept += b->spans().size();
    r.info["spans_kept"] = static_cast<double>(kept);
    r.info["traced_ops_per_s"] = traced_ops_per_s;
    r.info["untraced_ops_per_s"] = untraced_ops_per_s;
    print_span_table(bufs);
    if (!opt_.spans_out.empty() && !write_spans(opt_.spans_out, bufs)) {
      r.fail("could not write spans to " + opt_.spans_out);
    }
  }

  static void print_span_table(const std::vector<const SpanBuffer*>& bufs) {
    std::printf("%-22s %12s %12s %10s %10s\n", "span", "calls", "total_ms",
                "p50_ns", "p99_ns");
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      const auto kind = static_cast<SpanKind>(k);
      u64 calls = 0, ticks = 0;
      for (const SpanBuffer* b : bufs) {
        calls += b->calls(kind);
        ticks += b->ticks(kind);
      }
      if (calls == 0) continue;
      auto v = durations_ns(bufs, kind);
      const double p50 = percentile(v, 0.5).value;
      const double p99 = percentile(v, 0.99).value;
      std::printf("%-22s %12llu %12.3f %10.1f %10.1f\n", span_name(kind),
                  static_cast<unsigned long long>(calls),
                  tsc::to_ns(ticks) / 1e6, p50, p99);
    }
  }

  Options opt_;
  bool churn_;
  KeySpace keys_;
  unsigned threads_;
  std::vector<Stream> streams_;
  std::atomic<int> phase_{0};
};

}  // namespace

void run_embedded(const Options& opt, bool churn, Result& r) {
  Embedded e(opt, churn);
  e.run(r);
}

}  // namespace perfbench
