// Journal — the flight recorder, and the only recorder: a bounded ring of
// virtual-time-stamped structured events.  Counters (obs::Registry) say
// *how much* happened; the journal says *when*, relative to everything
// else in the run, and *what nested under what*: explicit spans are
// begin/end events on an open-span stack the journal keeps, and every
// event remembers the span open around it.  Span trees and the Chrome
// export are views of this one stream (obs/spans.hpp, obs/chrome.hpp).
//
// Overhead discipline (DESIGN.md §16):
//   * Disabled (the default) the journal is a single `enabled()` branch,
//     the first thing record() tests.  A call site that *builds* an
//     argument — a concatenated detail or span name — MUST guard with
//     `if (j.enabled())` so nothing is built on the disabled path.
//     Nothing is allocated until the first enable.
//   * Enabled, the ring is allocated once at `capacity()` slots and then
//     reused; recording is a slot assignment, never a push_back.  Memory
//     stays bounded no matter how long the run is: old events are
//     overwritten, and `overwritten()` says how many fell off the back.
//   * Recording never reads clocks (every timestamp is passed in by the
//     caller, from the clock of the node that records the event), never
//     draws from a PRNG and never advances virtual time, so enabling the
//     journal cannot perturb a seeded run — virtual-time results and wire
//     bytes are bit-for-bit identical with the journal on or off (asserted
//     by bench_journal / E11 and journal_system_test).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace rafda::obs {

/// One recorded event.  The fixed fields cover every emitter; `a`/`b` are
/// kind-specific payloads (request id, byte counts, object ids, ...) and
/// `detail` is a short human string (protocol, method, "request"/"reply").
struct JournalEvent {
    enum class Kind : std::uint8_t {
        RpcSend,      // node=src, peer=dst, a=request_id, b=request bytes,
                      // flags: kCoalesced when the request joined an open
                      // batch frame (DESIGN.md §17)
        RpcArrive,    // node=dst, peer=src, a=request_id, b=request bytes,
                      // detail=protocol
        RpcDispatch,  // node=dst, a=request_id, b=attempt; opens the
                      // rpc.dispatch span, closed by RpcHandled
        RpcReply,     // node=caller, peer=dst, a=request_id, b=reply bytes
        RpcDrop,      // node=src, peer=dst of the lossy link, a=request_id
        RpcRetry,     // node=caller, a=request_id, b=attempt about to run
        RpcTimeout,   // node=where the deadline fired, a=request_id
        DedupHit,     // node=server, a=request_id (reply replayed, not re-run)
        Breaker,      // node=dst, a=new state (0 closed / 1 open / 2 half-open)
        FaultEdge,    // node=src, peer=dst (peer=-1: node fault), a=1 down/0 up
        Migrate,      // node=from, peer=to, a=old oid, b=new oid
        Adapt,        // adaptation-engine decision (DESIGN.md §19):
                      // node=from/home, peer=to (-1 when n/a), a=action
                      // (0 migrate / 1 replicate / 2 defer / 3 invalidate /
                      // 4 refresh / 5 recover), b=bytes involved, detail=class
        Recover,      // durable restart or migration-by-recovery
                      // (DESIGN.md §20): node=recovered/crashed node,
                      // peer=target (-1 = in-place restart), a=records
                      // replayed, b=bytes replayed
        RpcHandled,       // node=dst, peer=src, a=request_id: the server is
                          // done handling (closes rpc.dispatch)
        RpcReplySend,     // node=dst, peer=src, a=request_id, b=reply bytes:
                          // the reply frame departs
        RpcReplyDecoded,  // node=caller, peer=dst, a=request_id: the caller
                          // holds the result
        SpanBegin,    // node=where, peer=target node (-1 when n/a),
                      // a=request_id of the attempt the span starts (0 when
                      // none), detail=span name; the span id is this seq
        SpanEnd,      // a=id of the span closed (node and peer -1)
    };

    /// RpcSend flag: the request rode an open batch frame.
    static constexpr std::uint8_t kCoalesced = 1;

    Kind kind = Kind::RpcSend;
    std::uint8_t flags = 0;
    std::uint64_t seq = 0;   // monotone sequence number, survives wrap-around
    std::uint64_t t_us = 0;  // virtual time of the event
    std::int32_t node = -1;
    std::int32_t peer = -1;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    /// The innermost span open around this event (0 = none).  For an
    /// event that opens or closes a span it is the span around *that* one,
    /// so an opened span's parent is its opening event's `span`.
    std::uint64_t span = 0;
    std::string detail;
};

/// Short stable name for tables and JSON ("send", "drop", "migrate", ...).
const char* journal_kind_name(JournalEvent::Kind kind);

class Journal {
public:
    static constexpr std::size_t kDefaultCapacity = 8192;
    /// Longest detail string a slot retains; longer strings are truncated
    /// with a "..." suffix at record time.  Slots are a reuse pool whose
    /// string capacity persists, so this bounds ring memory at
    /// capacity × (sizeof(JournalEvent) + kMaxDetail) regardless of what
    /// emitters pass in — the scale guarantee DESIGN.md §18 relies on.
    static constexpr std::size_t kMaxDetail = 64;

    /// Enabling allocates the ring (once) and starts with no span open;
    /// disabling keeps the recorded events readable but stops recording.
    void set_enabled(bool on);
    bool enabled() const noexcept { return enabled_; }

    /// Resizes the ring and clears it.  Capacity 0 is clamped to 1.
    void set_capacity(std::size_t n);
    std::size_t capacity() const noexcept { return capacity_; }

    /// Appends one event (a no-op while disabled).  When the ring is full
    /// the oldest event is overwritten — recording is O(1), and
    /// allocation-free once the slot strings have grown.  RpcDispatch
    /// pushes the event onto the open-span stack and RpcHandled pops it:
    /// the host-side call is synchronous, so whatever is open at dispatch
    /// is the caller's invoke (or retry attempt) and parents the dispatch,
    /// through forwarding chains too.
    void record(JournalEvent::Kind kind, std::uint64_t t_us, std::int32_t node,
                std::int32_t peer, std::uint64_t a, std::uint64_t b,
                std::string_view detail = {}, std::uint8_t flags = 0) {
        if (enabled_) append(kind, t_us, node, peer, a, b, detail, flags);
    }

    /// Opens an explicit span as a child of the innermost open one (a new
    /// root when none is open) with a SpanBegin event.  Returns the span
    /// id, or 0 when disabled.
    std::uint64_t begin_span(std::uint64_t t_us, std::int32_t node, std::string_view name,
                             std::int32_t peer = -1, std::uint64_t request_id = 0);
    /// Closes span `id` and anything still open inside it, one SpanEnd
    /// each.  Unknown ids (0, or spans dropped by rebase) are a no-op.
    void end_span(std::uint64_t id, std::uint64_t t_us);
    /// Id of the innermost open span (0 when none).
    std::uint64_t current_span() const noexcept {
        return open_.empty() ? 0 : open_.back();
    }

    /// Events currently held (<= capacity()).
    std::size_t size() const noexcept { return size_; }
    /// Events recorded since the last rebase/clear, including overwritten.
    std::uint64_t total_recorded() const noexcept { return total_; }
    /// Events lost off the back of the ring.
    std::uint64_t overwritten() const noexcept { return total_ - size_; }

    /// Virtual time the current observation window started: 0 at birth,
    /// reset_stats() rebases it to the watermark so journal contents and
    /// utilization denominators describe the same window (DESIGN.md §16).
    std::uint64_t epoch_us() const noexcept { return epoch_us_; }

    /// Drops every event and open span and starts a new observation
    /// window at `epoch`.
    void rebase(std::uint64_t epoch_us);
    void clear() { rebase(epoch_us_); }

    /// Oldest-to-newest traversal.
    void visit(const std::function<void(const JournalEvent&)>& fn) const;

    /// Single-line JSON: {"epoch_us":..,"total":..,"overwritten":..,
    /// "events":[{...},...]} — the `rafdac journal --json` contract.
    std::string to_json() const;

private:
    void append(JournalEvent::Kind kind, std::uint64_t t_us, std::int32_t node,
                std::int32_t peer, std::uint64_t a, std::uint64_t b,
                std::string_view detail, std::uint8_t flags);

    bool enabled_ = false;
    std::size_t capacity_ = kDefaultCapacity;
    std::vector<JournalEvent> ring_;  // allocated on first enable
    std::size_t head_ = 0;            // slot the next event goes into
    std::size_t size_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t epoch_us_ = 0;
    std::vector<std::uint64_t> open_;  // open span ids, innermost last
};

/// One event as a JSON object (the element shape of Journal::to_json).
void write_event_json(std::ostream& os, const JournalEvent& e);

/// RAII explicit span.  While the journal is enabled it opens a span named
/// `name()` — only called then, so nothing is built on the disabled path —
/// and closes it on scope exit, exceptional unwinds included (dropped
/// messages, guest exceptions), stamped with whatever `*clock` reads then.
/// `clock` points at the recording node's clock and must outlive the scope.
class SpanScope {
public:
    template <class Name>
    SpanScope(Journal& journal, const std::uint64_t* clock, std::int32_t node,
              const Name& name, std::int32_t peer = -1, std::uint64_t request_id = 0)
        : journal_(journal),
          clock_(clock),
          id_(journal.enabled() ? journal.begin_span(*clock, node, name(), peer, request_id)
                                : 0) {}
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    ~SpanScope() {
        if (id_) journal_.end_span(id_, *clock_);
    }

private:
    Journal& journal_;
    const std::uint64_t* clock_;
    const std::uint64_t id_;
};

}  // namespace rafda::obs
