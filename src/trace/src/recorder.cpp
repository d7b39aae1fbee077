#include "dedukt/trace/recorder.hpp"

#include <algorithm>
#include <cstdio>

#include "dedukt/trace/session.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::trace {

namespace detail {

namespace {
thread_local SpanRecorder* t_current = nullptr;
}  // namespace

SpanRecorder* current_recorder() { return t_current; }
void set_current_recorder(SpanRecorder* recorder) { t_current = recorder; }

}  // namespace detail

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string json_quote(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 2);
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::size_t SpanRecorder::open_span(const char* category, const char* name,
                                    Track track) {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.category = category;
  span.name = name;
  span.track = track;
  span.depth = static_cast<int>(open_stack_.size());
  span.wall_start = epoch_.seconds();
  span.modeled_start = modeled_now_;
  const std::size_t handle = spans_.size();
  spans_.push_back(std::move(span));
  open_stack_.push_back(handle);
  return handle;
}

void SpanRecorder::add_arg(std::size_t handle, const char* key,
                           std::string json_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  DEDUKT_CHECK(handle < spans_.size());
  spans_[handle].args.push_back(SpanArg{key, std::move(json_value)});
}

void SpanRecorder::set_smem(std::size_t handle, std::uint64_t read_bytes,
                            std::uint64_t write_bytes, std::uint64_t atomics) {
  std::lock_guard<std::mutex> lock(mutex_);
  DEDUKT_CHECK(handle < spans_.size());
  SpanRecord& span = spans_[handle];
  span.smem_read_bytes = read_bytes;
  span.smem_write_bytes = write_bytes;
  span.smem_atomics = atomics;
}

void SpanRecorder::close_span(std::size_t handle, double wall_seconds,
                              double modeled_seconds,
                              double modeled_volume_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  DEDUKT_CHECK(handle < spans_.size());
  DEDUKT_CHECK_MSG(!open_stack_.empty() && open_stack_.back() == handle,
                   "spans must close in LIFO order per recorder");
  open_stack_.pop_back();
  SpanRecord& span = spans_[handle];
  span.wall_seconds = wall_seconds;
  if (modeled_seconds >= 0.0) {
    // Pinned duration: store the caller's value verbatim (only extended if
    // children already put more on the clock). Recomputing it as
    // end - start against the absolute cursor would round differently
    // depending on where in the session the span sits, making metrics
    // windows disagree in the low bits; the stored duration must be
    // bit-identical no matter when the span ran.
    span.modeled_seconds =
        std::max(modeled_seconds, modeled_now_ - span.modeled_start);
    modeled_now_ =
        std::max(modeled_now_, span.modeled_start + modeled_seconds);
  } else {
    span.modeled_seconds = modeled_now_ - span.modeled_start;
  }
  span.modeled_volume_seconds = modeled_volume_seconds;
}

void SpanRecorder::advance_modeled(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  modeled_now_ += seconds;
}

void SpanRecorder::add_counter(const char* name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

void SpanRecorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  DEDUKT_CHECK_MSG(open_stack_.empty(), "reset with open spans");
  spans_.clear();
  counters_.clear();
  modeled_now_ = 0.0;
  epoch_.reset();
}

double SpanRecorder::modeled_now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return modeled_now_;
}

std::vector<SpanRecord> SpanRecorder::spans_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t SpanRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, std::uint64_t> SpanRecorder::counters_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

ScopedSpan::ScopedSpan(const char* category, const char* name, Track track) {
  if (!enabled()) return;
  recorder_ = &TraceSession::instance().current_or_main();
  handle_ = recorder_->open_span(category, name, track);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->close_span(handle_, wall_.seconds(), modeled_, volume_);
}

void ScopedSpan::set_smem(std::uint64_t read_bytes, std::uint64_t write_bytes,
                          std::uint64_t atomics) {
  if (recorder_ == nullptr) return;
  recorder_->set_smem(handle_, read_bytes, write_bytes, atomics);
}

void ScopedSpan::arg_u64(const char* key, std::uint64_t value) {
  if (recorder_ == nullptr) return;
  recorder_->add_arg(handle_, key, std::to_string(value));
}

void ScopedSpan::arg_i64(const char* key, std::int64_t value) {
  if (recorder_ == nullptr) return;
  recorder_->add_arg(handle_, key, std::to_string(value));
}

void ScopedSpan::arg_f64(const char* key, double value) {
  if (recorder_ == nullptr) return;
  recorder_->add_arg(handle_, key, json_number(value));
}

void ScopedSpan::arg_str(const char* key, const std::string& value) {
  if (recorder_ == nullptr) return;
  recorder_->add_arg(handle_, key, json_quote(value));
}

void counter(const char* name, std::uint64_t delta) {
  if (!enabled()) return;
  TraceSession::instance().current_or_main().add_counter(name, delta);
}

RankTraceScope::RankTraceScope(int rank) {
  if (!enabled()) return;
  previous_ = detail::current_recorder();
  detail::set_current_recorder(&TraceSession::instance().recorder(rank));
  active_ = true;
}

RankTraceScope::~RankTraceScope() {
  if (!active_) return;
  detail::set_current_recorder(previous_);
}

}  // namespace dedukt::trace
