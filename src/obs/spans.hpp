// Span view — the journal's event stream read back as a span forest
// (DESIGN.md §10).  There is no separate span recorder:
//   * explicit spans (rpc.invoke/create/discover/attempt, rpc.dispatch,
//     vm.execute, runtime.*) are begin/end event pairs, parented by the
//     span open around their opening event;
//   * stage spans (codec.*, net.transfer) are the gaps between consecutive
//     lifecycle events of one request id — send, arrive, dispatch,
//     handled, reply_send, reply, reply_decoded, drop — parented by the
//     span open around their closing event.
// Times are the journal's: the clock of the node that recorded each
// boundary.  Lifecycle events show under the stage span they open (a drop
// or reply_decoded, which open none, under the one they close); other
// events under the explicit span open around them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/journal.hpp"

namespace rafda::obs {

struct Span {
    std::uint64_t id = 0;      // 2×seq of the opening event (+1 for stages)
    std::uint64_t parent = 0;  // 0 = root (or parent no longer in the ring)
    std::uint64_t trace = 0;   // id of the root span
    std::string name;
    std::int32_t node = -1;         // address space the span ran in
    std::int32_t target_node = -1;  // where an rpc.* span's call went
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;  // 0 while the span is still open
    std::vector<JournalEvent> events;

    std::uint64_t duration_us() const noexcept {
        return end_us >= start_us ? end_us - start_us : 0;
    }
};

/// Every span the journal still holds, in begin order.
std::vector<Span> spans_of(const Journal& journal);

/// ASCII rendering of the span forest with times and events.
std::string render_tree(const std::vector<Span>& spans);
/// Single-line JSON array of span objects (`rafdac trace --json`).
std::string spans_json(const std::vector<Span>& spans);

}  // namespace rafda::obs
