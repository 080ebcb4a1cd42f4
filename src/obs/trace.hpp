// Structured request tracing: spans, per-thread ring buffers, Chrome JSON.
//
// Design constraints, in order:
//
//   1. Zero overhead when disabled. Instrumentation sites construct a
//      SpanScope; when no tracer is installed that is one static pointer
//      load and a branch — no allocation, no clock read, no atomics.
//   2. Deterministic in the simulation stack. Timestamps come from the
//      tracer's clock, which in kVirtual mode is a counter advanced by the
//      simulator (one tick per event, re-based per request), so two runs
//      with the same seed produce byte-identical exports. kWall mode reads
//      the steady clock for the real kv stack.
//   3. Lock-free on the hot path. Each thread records into its own
//      fixed-capacity ring buffer (single producer, wraparound overwrites
//      the oldest events); the only cross-thread state is a relaxed
//      sequence counter that provides a deterministic total order for
//      export. Ring registration (first event of a thread) takes a mutex.
//
// Span taxonomy used by the instrumentation seams (docs/ARCHITECTURE.md):
//   request > cover | wave{round1,recover,round2} > transaction > retry
// with fault decisions (drops, crashes, restores, hedges) attached as
// annotations or instant events.
//
// Event names, categories, and annotation strings MUST be string literals
// (or otherwise outlive the tracer): events store the pointers, never
// copies, to keep recording allocation-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

namespace rnb::obs {

/// Deterministic JSON string escaping shared by the trace and slow-log
/// exporters (escapes quote, backslash, and control characters).
void write_json_string(std::ostream& os, const char* s);
/// Trace/span ids as a quoted unpadded lowercase-hex JSON string — the
/// one id spelling used by traces, exemplars, and the wire tag.
void write_hex_id(std::ostream& os, std::uint64_t id);

struct TraceArg {
  const char* key = nullptr;
  std::int64_t value = 0;
};

/// Propagated trace identity: which trace a span belongs to and which span
/// is its parent. A zero trace id means "no trace" — spans recorded without
/// a context export exactly as before contexts existed.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool sampled = true;

  bool valid() const noexcept { return trace_id != 0; }

  friend bool operator==(const TraceContext& a,
                         const TraceContext& b) noexcept {
    return a.trace_id == b.trace_id && a.span_id == b.span_id &&
           a.sampled == b.sampled;
  }
};

struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 4;

  const char* name = nullptr;
  const char* cat = nullptr;
  char phase = 'X';        // 'X' complete span, 'i' instant
  std::uint64_t ts = 0;    // microseconds (virtual or wall)
  std::uint64_t dur = 0;   // phase 'X' only
  std::uint32_t tid = 0;   // ring id, 1-based registration order
  std::uint64_t seq = 0;   // global record order (export sort key)
  // Trace identity; all zero for events recorded outside any trace, in
  // which case the export omits the fields entirely (pre-context bytes).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint32_t num_args = 0;
  TraceArg args[kMaxArgs];
  // One optional string-valued annotation ("fault": "drop", ...).
  const char* note_key = nullptr;
  const char* note_value = nullptr;

  void add_arg(const char* key, std::int64_t value) noexcept {
    if (num_args < kMaxArgs) args[num_args++] = {key, value};
  }
};

/// Fixed-capacity single-producer event ring. The owning thread pushes;
/// snapshots happen after the run (or from tests) when the producer is
/// quiescent.
class TraceRing {
 public:
  TraceRing(std::size_t capacity, std::uint32_t tid)
      : events_(capacity), tid_(tid) {}

  std::uint32_t tid() const noexcept { return tid_; }
  std::size_t capacity() const noexcept { return events_.size(); }
  /// Total events ever pushed (>= surviving events).
  std::uint64_t pushed() const noexcept { return pushed_; }
  /// Events overwritten by wraparound.
  std::uint64_t dropped() const noexcept {
    return pushed_ > events_.size() ? pushed_ - events_.size() : 0;
  }

  void push(const TraceEvent& event) noexcept {
    events_[static_cast<std::size_t>(pushed_ % events_.size())] = event;
    ++pushed_;
  }

  /// Surviving events, oldest first.
  std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t pushed_ = 0;
  std::uint32_t tid_;
};

class Tracer {
 public:
  enum class ClockMode {
    kWall,     // steady-clock microseconds since tracer construction
    kVirtual,  // deterministic: simulator-driven base + one tick per event
  };

  explicit Tracer(ClockMode mode, std::size_t ring_capacity = 1u << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide installed tracer (nullptr when tracing is off). A
  /// plain pointer read — this is the entire disabled-path cost.
  static Tracer* current() noexcept { return current_; }
  /// Install / remove the process-wide tracer. Not thread-safe against
  /// concurrent recording: install before the run, remove after.
  static void set_current(Tracer* tracer) noexcept { current_ = tracer; }

  ClockMode mode() const noexcept { return mode_; }

  /// Current timestamp in microseconds. Virtual mode: strictly increasing,
  /// max(virtual base, last + 1) — deterministic and free of clock reads.
  std::uint64_t now() noexcept;

  /// Advance the virtual clock base (no-op in wall mode). The simulators
  /// call this once per request with a per-request time slot, so span
  /// timestamps group by request when a trace is viewed.
  void set_virtual_time(std::uint64_t micros) noexcept {
    if (mode_ == ClockMode::kVirtual && micros > virtual_base_)
      virtual_base_ = micros;
  }

  /// Record an instant event ('i' phase).
  void instant(const char* name, const char* cat,
               std::initializer_list<TraceArg> args = {});

  /// Record an instant event attached to a specific trace (exemplar
  /// back-references from histograms use this to point at a trace id).
  void instant_in_trace(const char* name, const char* cat,
                        const TraceContext& ctx,
                        std::initializer_list<TraceArg> args = {});

  /// Record a complete ('X') event with explicit timing as a child of the
  /// ambient context. Used for work measured before a context could be
  /// adopted (the server's parse span: the trace tag only exists after
  /// parsing finishes).
  void complete(const char* name, const char* cat, std::uint64_t ts,
                std::uint64_t dur, std::initializer_list<TraceArg> args = {});

  /// Record a fully built event (SpanScope's close path).
  void record(TraceEvent event);

  /// Allocate a fresh trace id / span id. Counters are per-tracer so two
  /// tracers fed the same event stream export byte-identically.
  std::uint64_t new_trace_id() noexcept {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t new_span_id() noexcept {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The calling thread's ambient trace context (zero trace id = none).
  /// SpanScope and ScopedTraceContext push/restore it RAII-style; reading
  /// it is how instrumentation learns "which request am I part of".
  static TraceContext& ambient_context() noexcept {
    thread_local TraceContext ctx;
    return ctx;
  }

  /// Events recorded / lost to ring wraparound, across all threads.
  std::uint64_t events_recorded() const;
  std::uint64_t events_dropped() const;

  /// Write all surviving events as Chrome trace_event JSON (the
  /// "traceEvents" array form; loads in chrome://tracing and Perfetto).
  /// Events are ordered by the global sequence counter, so single-threaded
  /// runs export byte-identically for identical event streams.
  void export_chrome_json(std::ostream& os) const;

  /// All surviving events in export order (global sequence). For post-run
  /// consumers like the slow-request log's span-tree dump; call while
  /// producers are quiescent.
  std::vector<TraceEvent> snapshot_events() const;

 private:
  friend class SpanScope;

  TraceRing& ring_for_current_thread();
  std::uint64_t next_seq() noexcept {
    return seq_.fetch_add(1, std::memory_order_relaxed);
  }

  static Tracer* current_;

  ClockMode mode_;
  std::size_t ring_capacity_;
  std::uint64_t wall_epoch_ = 0;  // steady-clock micros at construction
  // Virtual-clock state; only touched in kVirtual mode, whose contract is
  // single-threaded recording (the deterministic sim stack).
  std::uint64_t virtual_base_ = 0;
  std::uint64_t last_ts_ = 0;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::atomic<std::uint64_t> next_span_id_{1};
  std::uint64_t id_ = 0;  // process-unique, for thread-local cache checks

  mutable std::mutex registry_mutex_;
  std::deque<std::unique_ptr<TraceRing>> rings_;
};

/// Adopts a propagated trace context (e.g. parsed off the wire) as the
/// calling thread's ambient context for the scope's lifetime. Spans opened
/// inside become children of the remote span. No-op when no tracer is
/// installed or the context is invalid.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx) {
    if (Tracer::current() == nullptr || !ctx.valid()) return;
    TraceContext& ambient = Tracer::ambient_context();
    saved_ = ambient;
    ambient = ctx;
    active_ = true;
  }

  ~ScopedTraceContext() {
    if (active_) Tracer::ambient_context() = saved_;
  }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  bool active() const noexcept { return active_; }

 private:
  TraceContext saved_;
  bool active_ = false;
};

/// Whether a span joins the ambient trace (kChild: a child of the ambient
/// context when one is set, context-free otherwise, so exports stay
/// byte-identical to the pre-context format) or starts a fresh trace
/// (kRoot).
enum class SpanKind { kChild, kRoot };

/// A span opened and closed by explicit calls, for work that overlaps its
/// siblings and so cannot nest as a scope (a transaction issued in a wave
/// and finished after the others were issued). It never installs itself as
/// the ambient context: adopt context() around work that belongs under it.
/// close() records one 'X' (complete) event with the explicit start and
/// end times. Inactive (all methods no-op) when no tracer was installed at
/// open().
class OpenSpan {
 public:
  void open(const char* name, const char* cat,
            SpanKind kind = SpanKind::kChild) {
    tracer_ = Tracer::current();
    if (tracer_ == nullptr) return;
    event_ = TraceEvent{};
    event_.name = name;
    event_.cat = cat;
    sampled_ = true;
    const TraceContext& ambient = Tracer::ambient_context();
    if (kind == SpanKind::kRoot) {
      event_.trace_id = tracer_->new_trace_id();
      event_.span_id = tracer_->new_span_id();
    } else if (ambient.valid()) {
      event_.trace_id = ambient.trace_id;
      event_.parent_id = ambient.span_id;
      event_.span_id = tracer_->new_span_id();
      sampled_ = ambient.sampled;
    }
    event_.ts = tracer_->now();
  }

  /// Record the span, ending now. Later calls do nothing.
  void close() {
    if (tracer_ == nullptr) return;
    event_.dur = tracer_->now() - event_.ts;
    tracer_->record(event_);
    tracer_ = nullptr;
  }

  bool active() const noexcept { return tracer_ != nullptr; }

  /// The span's own trace identity (invalid when the span carries none);
  /// this is what goes on the wire so remote spans become our children.
  TraceContext context() const noexcept {
    if (tracer_ == nullptr) return {};
    return {event_.trace_id, event_.span_id, sampled_};
  }

  /// Rewind the span's start (e.g. to fold in work measured before the
  /// span could be opened). Only moves backwards; timestamps stay ordered.
  void set_start(std::uint64_t ts) noexcept {
    if (tracer_ != nullptr && ts < event_.ts) event_.ts = ts;
  }

  /// Attach an integer argument (first TraceEvent::kMaxArgs stick).
  void arg(const char* key, std::int64_t value) noexcept {
    if (tracer_ != nullptr) event_.add_arg(key, value);
  }

  /// Attach the span's one string annotation (static strings only).
  void note(const char* key, const char* value) noexcept {
    if (tracer_ != nullptr) {
      event_.note_key = key;
      event_.note_value = value;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  TraceEvent event_;
  bool sampled_ = true;
};

/// RAII span: an OpenSpan opened at construction and closed at
/// destruction, covering the scope's duration. A span with an identity
/// installs itself as the ambient context so nested spans become its
/// children, and restores the previous context on close.
class SpanScope {
 public:
  using Kind = SpanKind;

  SpanScope(const char* name, const char* cat, Kind kind = Kind::kChild) {
    span_.open(name, cat, kind);
    const TraceContext ctx = span_.context();
    if (!ctx.valid()) return;
    TraceContext& ambient = Tracer::ambient_context();
    saved_ = ambient;
    ambient = ctx;
    restore_ = true;
  }

  ~SpanScope() {
    span_.close();
    if (restore_) Tracer::ambient_context() = saved_;
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const noexcept { return span_.active(); }
  TraceContext context() const noexcept { return span_.context(); }
  void set_start(std::uint64_t ts) noexcept { span_.set_start(ts); }
  void arg(const char* key, std::int64_t value) noexcept {
    span_.arg(key, value);
  }
  void note(const char* key, const char* value) noexcept {
    span_.note(key, value);
  }

 private:
  OpenSpan span_;
  TraceContext saved_;
  bool restore_ = false;
};

}  // namespace rnb::obs
