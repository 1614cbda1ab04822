#include "obs/chrome.hpp"

#include <map>
#include <set>
#include <sstream>

#include "obs/export.hpp"
#include "obs/spans.hpp"

namespace rafda::obs {

namespace {

/// pid 0 is the "no node" process; real nodes are offset by one so node 0
/// is distinguishable from it.
std::int64_t node_pid(std::int32_t node) { return node >= 0 ? node + 1 : 0; }

/// Span begin/end events are drawn as their span, not as instants.
bool is_span_marker(const JournalEvent& e) {
    return e.kind == JournalEvent::Kind::SpanBegin ||
           e.kind == JournalEvent::Kind::SpanEnd;
}

}  // namespace

std::string chrome_trace_json(const Journal& journal) {
    const std::vector<Span> spans = spans_of(journal);

    // The lane (tid) of every span is the node of its trace's root span —
    // the client that initiated the logical operation.  Spans arrive in
    // begin order, so the first span seen for a trace id is its root.
    std::map<std::uint64_t, std::int64_t> trace_lane;
    for (const Span& s : spans)
        trace_lane.emplace(s.trace, node_pid(s.node));

    std::set<std::int64_t> pids;
    std::map<std::int64_t, std::set<std::int64_t>> tids;  // pid -> lanes
    for (const Span& s : spans) {
        const std::int64_t pid = node_pid(s.node);
        pids.insert(pid);
        tids[pid].insert(trace_lane[s.trace]);
    }
    journal.visit([&](const JournalEvent& e) {
        if (is_span_marker(e)) return;
        pids.insert(node_pid(e.node));
        tids[node_pid(e.node)].insert(0);
    });

    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first) os << ",";
        first = false;
    };

    // Metadata: name the processes after their nodes and the lanes after
    // the clients driving them (lane 0 doubles as the journal lane).
    for (const std::int64_t pid : pids) {
        sep();
        os << "{\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
           << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
           << (pid ? "node " + std::to_string(pid - 1) : "middleware") << "\"}}";
    }
    for (const auto& [pid, lanes] : tids) {
        for (const std::int64_t tid : lanes) {
            sep();
            os << "{\"ph\":\"M\",\"ts\":0,\"pid\":" << pid << ",\"tid\":" << tid
               << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
               << (tid ? "client " + std::to_string(tid - 1) : "events")
               << "\"}}";
        }
    }

    for (const Span& s : spans) {
        sep();
        os << "{\"ph\":\"X\",\"name\":\"" << json_escape(s.name)
           << "\",\"cat\":\"span\",\"ts\":" << s.start_us
           << ",\"dur\":" << s.duration_us() << ",\"pid\":" << node_pid(s.node)
           << ",\"tid\":" << trace_lane[s.trace] << ",\"args\":{\"trace\":" << s.trace
           << ",\"span\":" << s.id << "}}";
    }

    journal.visit([&](const JournalEvent& e) {
        if (is_span_marker(e)) return;
        sep();
        os << "{\"ph\":\"i\",\"s\":\"p\",\"name\":\"" << journal_kind_name(e.kind);
        if (!e.detail.empty()) os << " " << json_escape(e.detail);
        os << "\",\"cat\":\"journal\",\"ts\":" << e.t_us
           << ",\"pid\":" << node_pid(e.node) << ",\"tid\":0,\"args\":{\"seq\":"
           << e.seq << ",\"peer\":" << e.peer << ",\"a\":" << e.a << ",\"b\":" << e.b
           << "}}";
    });

    os << "]}";
    return os.str();
}

}  // namespace rafda::obs
