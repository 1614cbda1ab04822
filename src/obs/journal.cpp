#include "obs/journal.hpp"

#include <algorithm>
#include <sstream>

#include "obs/export.hpp"

namespace rafda::obs {

const char* journal_kind_name(JournalEvent::Kind kind) {
    switch (kind) {
        case JournalEvent::Kind::RpcSend: return "send";
        case JournalEvent::Kind::RpcArrive: return "arrive";
        case JournalEvent::Kind::RpcDispatch: return "dispatch";
        case JournalEvent::Kind::RpcReply: return "reply";
        case JournalEvent::Kind::RpcDrop: return "drop";
        case JournalEvent::Kind::RpcRetry: return "retry";
        case JournalEvent::Kind::RpcTimeout: return "timeout";
        case JournalEvent::Kind::DedupHit: return "dedup";
        case JournalEvent::Kind::Breaker: return "breaker";
        case JournalEvent::Kind::FaultEdge: return "fault";
        case JournalEvent::Kind::Migrate: return "migrate";
        case JournalEvent::Kind::Adapt: return "adapt";
        case JournalEvent::Kind::Recover: return "recover";
        case JournalEvent::Kind::RpcHandled: return "handled";
        case JournalEvent::Kind::RpcReplySend: return "reply_send";
        case JournalEvent::Kind::RpcReplyDecoded: return "reply_decoded";
        case JournalEvent::Kind::SpanBegin: return "span_begin";
        case JournalEvent::Kind::SpanEnd: return "span_end";
    }
    return "?";
}

void Journal::set_enabled(bool on) {
    if (on && !enabled_) open_.clear();
    enabled_ = on;
    if (enabled_ && ring_.size() != capacity_) ring_.resize(capacity_);
}

void Journal::set_capacity(std::size_t n) {
    capacity_ = n ? n : 1;
    ring_.clear();
    if (enabled_) ring_.resize(capacity_);
    head_ = size_ = 0;
    total_ = 0;
}

void Journal::append(JournalEvent::Kind kind, std::uint64_t t_us, std::int32_t node,
                     std::int32_t peer, std::uint64_t a, std::uint64_t b,
                     std::string_view detail, std::uint8_t flags) {
    const std::uint64_t seq = next_seq_++;
    // The span stack moves with the stream: a dispatch opens the server's
    // span, end of handling closes it, and a SpanEnd's caller has already
    // popped its span.  `span` is the context outside any span the event
    // opens or closes.
    if (kind == JournalEvent::Kind::RpcHandled && !open_.empty()) open_.pop_back();
    const std::uint64_t around = current_span();
    if (kind == JournalEvent::Kind::RpcDispatch ||
        kind == JournalEvent::Kind::SpanBegin)
        open_.push_back(seq);

    JournalEvent& slot = ring_[head_];
    slot.kind = kind;
    slot.flags = flags;
    slot.seq = seq;
    slot.t_us = t_us;
    slot.node = node;
    slot.peer = peer;
    slot.a = a;
    slot.b = b;
    slot.span = around;
    // Bound per-slot memory: a slot's string capacity persists for the
    // ring's lifetime (reuse pool), so an unbounded detail would pin
    // arbitrary heap per slot at scale.  kMaxDetail covers every emitter's
    // legitimate payload (protocol names, methods, "request"/"reply").
    slot.detail.assign(detail.substr(0, kMaxDetail));
    if (detail.size() > kMaxDetail) slot.detail += "...";
    if (slot.detail.capacity() > kMaxDetail + 16) slot.detail.shrink_to_fit();
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_) ++size_;
    ++total_;
}

std::uint64_t Journal::begin_span(std::uint64_t t_us, std::int32_t node,
                                  std::string_view name, std::int32_t peer,
                                  std::uint64_t request_id) {
    if (!enabled_) return 0;
    record(JournalEvent::Kind::SpanBegin, t_us, node, peer, request_id, 0, name);
    return open_.back();
}

void Journal::end_span(std::uint64_t id, std::uint64_t t_us) {
    if (!enabled_ || std::find(open_.begin(), open_.end(), id) == open_.end()) return;
    // Everything opened inside `id` closes with it: an unwind may have
    // skipped an inner span's own end.
    for (std::uint64_t closed = 0; closed != id;) {
        closed = open_.back();
        open_.pop_back();
        record(JournalEvent::Kind::SpanEnd, t_us, -1, -1, closed, 0);
    }
}

void Journal::rebase(std::uint64_t epoch_us) {
    // Slots keep their string capacity (the ring is a reuse pool, not an
    // allocation source); only the logical contents are dropped.
    head_ = size_ = 0;
    total_ = 0;
    epoch_us_ = epoch_us;
    open_.clear();
}

void Journal::visit(const std::function<void(const JournalEvent&)>& fn) const {
    if (!size_) return;
    const std::size_t first = (head_ + capacity_ - size_) % capacity_;
    for (std::size_t k = 0; k < size_; ++k) fn(ring_[(first + k) % capacity_]);
}

void write_event_json(std::ostream& os, const JournalEvent& e) {
    os << "{\"seq\":" << e.seq << ",\"t_us\":" << e.t_us << ",\"kind\":\""
       << journal_kind_name(e.kind) << "\",\"node\":" << e.node
       << ",\"peer\":" << e.peer << ",\"a\":" << e.a << ",\"b\":" << e.b;
    if (e.span) os << ",\"span\":" << e.span;
    if (e.flags & JournalEvent::kCoalesced) os << ",\"coalesced\":1";
    if (!e.detail.empty()) os << ",\"detail\":\"" << json_escape(e.detail) << "\"";
    os << "}";
}

std::string Journal::to_json() const {
    std::ostringstream os;
    os << "{\"epoch_us\":" << epoch_us_ << ",\"capacity\":" << capacity_
       << ",\"total\":" << total_ << ",\"overwritten\":" << overwritten()
       << ",\"events\":[";
    bool first = true;
    visit([&](const JournalEvent& e) {
        if (!first) os << ",";
        first = false;
        write_event_json(os, e);
    });
    os << "]}";
    return os.str();
}

}  // namespace rafda::obs
