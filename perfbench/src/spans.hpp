// spans.hpp — the traced run's in-memory span store.
//
// The benchmark times each call it makes into a layer with two obs::tsc
// reads and appends a Span to a per-thread buffer; nothing is written until
// the run ends. A buffer that fills up halves itself (keeps every other
// span of each kind) and from then on keeps one call in two, four, ... of
// each kind — a uniform sample of every kind over the whole traced window,
// even of kinds recorded in a fixed rhythm with others, while the per-kind
// call counts stay exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/tsc.hpp"

namespace perfbench {

/// What a span timed. The first word of the name is the layer it belongs to.
enum class SpanKind : std::uint8_t {
  kHashBlock,   // util:      DefaultHash over a block of keys
  kPinBlock,    // mr:        EpochDomain pin()/unpin over a block
  kLookup,      // cachetrie: lookup
  kInsert,      // cachetrie: insert
  kRemove,      // cachetrie: remove
  kEncode,      // net:       proto::append_frame of one request
  kSend,        // net:       write_some carrying one or more requests
  kRecv,        // net:       read_some that returned reply bytes
  kParse,       // net:       proto::parse_reply of one reply
  kExecGet,     // net:       served GET inside the shard (timing wrapper)
  kExecPut,     // net:       served PUT inside the shard (timing wrapper)
  kRequest,     // served request: due time -> reply parsed (parent span)
  kCount
};

inline const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kHashBlock: return "util.hash_block";
    case SpanKind::kPinBlock: return "mr.pin_block";
    case SpanKind::kLookup: return "cachetrie.lookup";
    case SpanKind::kInsert: return "cachetrie.insert";
    case SpanKind::kRemove: return "cachetrie.remove";
    case SpanKind::kEncode: return "net.encode";
    case SpanKind::kSend: return "net.send";
    case SpanKind::kRecv: return "net.recv";
    case SpanKind::kParse: return "net.parse";
    case SpanKind::kExecGet: return "net.execute_get";
    case SpanKind::kExecPut: return "net.execute_put";
    case SpanKind::kRequest: return "net.request";
    case SpanKind::kCount: break;
  }
  return "?";
}

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

/// One timed call. `id` is the served request id (0 for embedded calls;
/// the served map wrapper stores the key there until the analysis joins
/// it to its request); `n` is how many requests or items the call covered.
struct Span {
  std::uint64_t start = 0;  // obs::tsc ticks
  std::uint32_t dur = 0;    // ticks
  SpanKind kind = SpanKind::kCount;
  std::uint8_t thread = 0;
  std::uint16_t n = 1;
  std::uint64_t id = 0;
};
static_assert(sizeof(Span) == 24);

class SpanBuffer {
 public:
  SpanBuffer(std::size_t capacity, std::uint8_t thread)
      : capacity_(capacity < 2 ? 2 : capacity), thread_(thread) {
    spans_.reserve(capacity_);
  }

  void record(SpanKind kind, std::uint64_t start, std::uint64_t end,
              std::uint64_t id = 0, std::uint16_t n = 1) {
    const auto k = static_cast<std::size_t>(kind);
    ++calls_[k];
    const std::uint64_t dur = end > start ? end - start : 0;
    ticks_[k] += dur;
    if ((++seen_[k] & (stride_ - 1)) != 0) return;
    if (spans_.size() == capacity_) {
      bool keep[kSpanKinds] = {};
      std::size_t w = 0;
      for (const Span& sp : spans_) {
        bool& kk = keep[static_cast<std::size_t>(sp.kind)];
        kk = !kk;
        if (!kk) spans_[w++] = sp;  // the 2nd, 4th, ... of each kind
      }
      spans_.resize(w);
      stride_ *= 2;
      if ((seen_[k] & (stride_ - 1)) != 0) return;
    }
    Span s;
    s.start = start;
    s.dur = dur > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(dur);
    s.kind = kind;
    s.thread = thread_;
    s.n = n;
    s.id = id;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }
  std::uint64_t calls(SpanKind k) const {
    return calls_[static_cast<std::size_t>(k)];
  }
  std::uint64_t ticks(SpanKind k) const {
    return ticks_[static_cast<std::size_t>(k)];
  }

 private:
  std::size_t capacity_;
  std::uint8_t thread_;
  std::vector<Span> spans_;
  std::uint64_t seen_[kSpanKinds] = {};
  std::uint64_t stride_ = 1;  // a power of two
  std::uint64_t calls_[kSpanKinds] = {};
  std::uint64_t ticks_[kSpanKinds] = {};
};

/// Span durations of one kind across buffers, in nanoseconds, divided by
/// the span's item count when `per_item` (block spans time n calls).
inline std::vector<double> durations_ns(
    const std::vector<const SpanBuffer*>& bufs, SpanKind kind,
    bool per_item = false) {
  std::vector<double> out;
  const double ns_per_tick = cachetrie::obs::tsc::calibration().ns_per_tick;
  for (const SpanBuffer* b : bufs) {
    for (const Span& s : b->spans()) {
      if (s.kind != kind) continue;
      double ns = static_cast<double>(s.dur) * ns_per_tick;
      if (per_item && s.n > 0) ns /= static_cast<double>(s.n);
      out.push_back(ns);
    }
  }
  return out;
}

/// Writes every kept span as raw records after a one-line text header
/// naming the format, the tick period and the kind names. Returns false on
/// an I/O error.
inline bool write_spans(const std::string& path,
                        const std::vector<const SpanBuffer*>& bufs) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) return false;
  std::size_t total = 0;
  for (const SpanBuffer* b : bufs) total += b->spans().size();
  std::fprintf(f.get(), "perfbench-spans v1 records=%zu record_bytes=%zu "
               "ns_per_tick=%.9f kinds=",
               total, sizeof(Span),
               cachetrie::obs::tsc::calibration().ns_per_tick);
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    std::fprintf(f.get(), "%s%s", k ? "," : "",
                 span_name(static_cast<SpanKind>(k)));
  }
  std::fputc('\n', f.get());
  for (const SpanBuffer* b : bufs) {
    const auto& v = b->spans();
    if (!v.empty() &&
        std::fwrite(v.data(), sizeof(Span), v.size(), f.get()) != v.size()) {
      return false;
    }
  }
  return std::fflush(f.get()) == 0;
}

}  // namespace perfbench
