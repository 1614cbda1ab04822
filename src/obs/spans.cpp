#include "obs/spans.hpp"

#include <functional>
#include <map>
#include <sstream>
#include <unordered_map>

#include "obs/export.hpp"

namespace rafda::obs {

namespace {

using Kind = JournalEvent::Kind;

/// The stages of one request attempt: the gap between consecutive
/// lifecycle events of its request id.  A span begin that carries a
/// request id (invoke, create, discover, retry attempt) starts the encode.
struct Stage {
    Kind open;
    Kind close;
    const char* name;
};
constexpr Stage kStages[] = {
    {Kind::SpanBegin, Kind::RpcSend, "codec.encode_request"},
    {Kind::RpcSend, Kind::RpcArrive, "net.transfer"},
    {Kind::RpcSend, Kind::RpcDrop, "net.transfer"},
    {Kind::RpcArrive, Kind::RpcDispatch, "codec.decode_request"},
    {Kind::RpcHandled, Kind::RpcReplySend, "codec.encode_reply"},
    {Kind::RpcReplySend, Kind::RpcReply, "net.transfer"},
    {Kind::RpcReplySend, Kind::RpcDrop, "net.transfer"},
    {Kind::RpcReply, Kind::RpcReplyDecoded, "codec.decode_reply"},
};

bool is_stage_event(const JournalEvent& e) {
    if (e.kind == Kind::SpanBegin) return e.a != 0;
    for (const Stage& st : kStages)
        if (e.kind == st.open || e.kind == st.close) return true;
    return false;
}

const Stage* stage_between(Kind open, Kind close) {
    for (const Stage& st : kStages)
        if (st.open == open && st.close == close) return &st;
    return nullptr;
}

}  // namespace

std::vector<Span> spans_of(const Journal& journal) {
    // A request's arrival names its protocol, which names its codec
    // stages — the encode stage included, though it ends first.
    std::unordered_map<std::uint64_t, std::string> protocol;
    journal.visit([&](const JournalEvent& e) {
        if (e.kind == Kind::RpcArrive) protocol.emplace(e.a, e.detail);
    });

    std::map<std::uint64_t, Span> spans;  // keyed by id, i.e. begin order
    // Latest stage boundary per request id (ring slots stay put during
    // the visit).
    std::unordered_map<std::uint64_t, const JournalEvent*> last;
    auto open_span = [&](std::uint64_t id, const JournalEvent& e, std::string name,
                         std::uint64_t parent) -> Span& {
        Span& s = spans[id];
        s.id = id;
        s.parent = 2 * parent;
        s.name = std::move(name);
        s.node = e.node;
        s.start_us = e.t_us;
        return s;
    };
    auto close_span = [&](std::uint64_t id, std::uint64_t t_us) {
        const auto it = spans.find(id);
        if (it != spans.end()) it->second.end_us = t_us;
    };

    journal.visit([&](const JournalEvent& e) {
        if (e.kind == Kind::SpanBegin)
            open_span(2 * e.seq, e, e.detail, e.span).target_node = e.peer;
        else if (e.kind == Kind::SpanEnd)
            close_span(2 * e.a, e.t_us);
        else if (e.kind == Kind::RpcDispatch)
            open_span(2 * e.seq, e, "rpc.dispatch " + e.detail, e.span).events.push_back(e);

        if (!is_stage_event(e)) {
            const auto around = spans.find(2 * e.span);
            if (e.kind != Kind::SpanBegin && e.kind != Kind::SpanEnd && around != spans.end())
                around->second.events.push_back(e);
            return;
        }
        const JournalEvent*& latest = last[e.a];
        const JournalEvent* prev = latest;
        latest = &e;
        if (!prev) return;
        if (prev->kind == Kind::RpcDispatch && e.kind == Kind::RpcHandled) {
            close_span(2 * prev->seq, e.t_us);
            return;
        }
        const Stage* st = stage_between(prev->kind, e.kind);
        if (!st) return;
        std::string name = st->name;
        if (prev->kind == Kind::RpcSend || prev->kind == Kind::RpcReplySend)
            name += " " + std::to_string(prev->node) + "->" + std::to_string(prev->peer);
        else
            name += " " + protocol[e.a];
        Span& s = open_span(2 * prev->seq + 1, *prev, std::move(name), e.span);
        s.end_us = e.t_us;
        if (prev->kind != Kind::SpanBegin) s.events.push_back(*prev);
        if (e.kind == Kind::RpcDrop || e.kind == Kind::RpcReplyDecoded)
            s.events.push_back(e);
    });

    // Parents begin before their children, so one pass in id order
    // resolves traces; a parent that fell off the ring makes a root.
    std::vector<Span> out;
    out.reserve(spans.size());
    std::unordered_map<std::uint64_t, std::uint64_t> trace_of;
    for (auto& [id, s] : spans) {
        const auto parent = trace_of.find(s.parent);
        if (parent == trace_of.end()) s.parent = 0;
        s.trace = s.parent ? parent->second : id;
        trace_of.emplace(id, s.trace);
        out.push_back(std::move(s));
    }
    return out;
}

std::string render_tree(const std::vector<Span>& spans) {
    std::map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : spans)
        if (s.parent) children[s.parent].push_back(&s);

    std::ostringstream os;
    std::function<void(const Span&, const std::string&, bool)> emit =
        [&](const Span& s, const std::string& prefix, bool last) {
            os << prefix << (last ? "└─ " : "├─ ") << s.name;
            if (s.node >= 0) os << "  (node " << s.node << ")";
            os << "  [" << s.start_us << "us +" << s.duration_us() << "us]";
            if (s.target_node >= 0) os << "  target_node=" << s.target_node;
            for (const JournalEvent& e : s.events) {
                os << "  " << journal_kind_name(e.kind) << "(a=" << e.a;
                if (e.b) os << " b=" << e.b;
                if (!e.detail.empty()) os << " " << e.detail;
                if (e.flags & JournalEvent::kCoalesced) os << " coalesced";
                os << ")";
            }
            os << "\n";
            const auto it = children.find(s.id);
            if (it == children.end()) return;
            const std::string child_prefix = prefix + (last ? "   " : "│  ");
            for (std::size_t k = 0; k < it->second.size(); ++k)
                emit(*it->second[k], child_prefix, k + 1 == it->second.size());
        };
    for (const Span& s : spans) {
        if (s.parent) continue;
        os << "trace " << s.trace << "\n";
        emit(s, "", true);
    }
    return os.str();
}

std::string spans_json(const std::vector<Span>& spans) {
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (i) os << ",";
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"trace\":" << s.trace << ",\"name\":\"" << json_escape(s.name)
           << "\",\"node\":" << s.node << ",\"start_us\":" << s.start_us
           << ",\"end_us\":" << s.end_us;
        if (s.target_node >= 0) os << ",\"target_node\":" << s.target_node;
        if (!s.events.empty()) {
            os << ",\"events\":[";
            for (std::size_t k = 0; k < s.events.size(); ++k) {
                if (k) os << ",";
                write_event_json(os, s.events[k]);
            }
            os << "]";
        }
        os << "}";
    }
    os << "]";
    return os.str();
}

}  // namespace rafda::obs
