#include "trace.h"

namespace perfbench {

std::atomic<bool> Tracer::enabled_{false};
std::array<std::atomic<std::uint64_t>, kLayers> Tracer::total_ns_{};
std::array<std::atomic<std::uint64_t>, kLayers> Tracer::self_ns_{};

namespace {
thread_local Span* tl_open_span = nullptr;
}  // namespace

void Tracer::reset() {
  for (int i = 0; i < kLayers; ++i) {
    total_ns_[i].store(0);
    self_ns_[i].store(0);
  }
}

LayerTimes Tracer::snapshot() {
  LayerTimes t;
  for (int i = 0; i < kLayers; ++i) {
    t.total[i] = static_cast<double>(total_ns_[i].load()) * 1e-9;
    t.self[i] = static_cast<double>(self_ns_[i].load()) * 1e-9;
  }
  return t;
}

void Tracer::record(Layer layer, std::uint64_t total_ns,
                    std::uint64_t self_ns) {
  const int i = static_cast<int>(layer);
  total_ns_[i].fetch_add(total_ns, std::memory_order_relaxed);
  self_ns_[i].fetch_add(self_ns, std::memory_order_relaxed);
}

Span::Span(Layer layer) : layer_(layer) {
  if (!Tracer::enabled()) return;
  open_ = true;
  parent_ = tl_open_span;
  tl_open_span = this;
  start_ns_ = now_ns();
}

std::uint64_t Span::close() {
  if (!open_) return 0;
  open_ = false;
  const std::uint64_t dur = now_ns() - start_ns_;
  const std::uint64_t child = child_ns_ < dur ? child_ns_ : dur;
  Tracer::record(layer_, dur, dur - child);
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  tl_open_span = parent_;
  return dur;
}

void TimedBackend::note(mhd::Ns ns, Span& span, std::uint64_t read,
                        std::uint64_t written) const {
  const std::uint64_t ns_time = span.close();
  const int i = static_cast<int>(ns);
  ns_calls_[i].fetch_add(1, std::memory_order_relaxed);
  ns_ns_[i].fetch_add(ns_time, std::memory_order_relaxed);
  if (read > 0) read_bytes_.fetch_add(read, std::memory_order_relaxed);
  if (written > 0) write_bytes_.fetch_add(written, std::memory_order_relaxed);
}

void TimedBackend::put(mhd::Ns ns, const std::string& name,
                       mhd::ByteSpan data) {
  Span span(layer_);
  inner_.put(ns, name, data);
  note(ns, span, 0, data.size());
}

void TimedBackend::append(mhd::Ns ns, const std::string& name,
                          mhd::ByteSpan data) {
  Span span(layer_);
  inner_.append(ns, name, data);
  note(ns, span, 0, data.size());
}

std::optional<mhd::ByteVec> TimedBackend::get(mhd::Ns ns,
                                              const std::string& name) const {
  Span span(layer_);
  auto out = inner_.get(ns, name);
  note(ns, span, out ? out->size() : 0, 0);
  return out;
}

std::optional<mhd::ByteVec> TimedBackend::get_range(mhd::Ns ns,
                                                    const std::string& name,
                                                    std::uint64_t offset,
                                                    std::uint64_t length) const {
  Span span(layer_);
  auto out = inner_.get_range(ns, name, offset, length);
  note(ns, span, out ? out->size() : 0, 0);
  return out;
}

bool TimedBackend::exists(mhd::Ns ns, const std::string& name) const {
  Span span(layer_);
  const bool r = inner_.exists(ns, name);
  note(ns, span, 0, 0);
  return r;
}

bool TimedBackend::remove(mhd::Ns ns, const std::string& name) {
  Span span(layer_);
  const bool r = inner_.remove(ns, name);
  note(ns, span, 0, 0);
  return r;
}

void TimedBackend::seal(mhd::Ns ns, const std::string& name) {
  Span span(layer_);
  inner_.seal(ns, name);
  note(ns, span, 0, 0);
}

std::uint64_t TimedBackend::object_count(mhd::Ns ns) const {
  Span span(layer_);
  const auto r = inner_.object_count(ns);
  note(ns, span, 0, 0);
  return r;
}

std::uint64_t TimedBackend::content_bytes(mhd::Ns ns) const {
  Span span(layer_);
  const auto r = inner_.content_bytes(ns);
  note(ns, span, 0, 0);
  return r;
}

std::vector<std::string> TimedBackend::list(mhd::Ns ns) const {
  Span span(layer_);
  auto r = inner_.list(ns);
  note(ns, span, 0, 0);
  return r;
}

void TimedBackend::reset_counters() {
  read_bytes_.store(0);
  write_bytes_.store(0);
  for (int i = 0; i < kNs; ++i) {
    ns_calls_[i].store(0);
    ns_ns_[i].store(0);
  }
}

IoCounters TimedBackend::counters() const {
  IoCounters c;
  c.read_bytes = read_bytes_.load();
  c.write_bytes = write_bytes_.load();
  for (int i = 0; i < kNs; ++i) {
    c.ns_calls[i] = ns_calls_[i].load();
    c.ns_seconds[i] = static_cast<double>(ns_ns_[i].load()) * 1e-9;
    c.calls += c.ns_calls[i];
  }
  return c;
}

}  // namespace perfbench
