// Chrome trace-event export — the journal as a Perfetto-loadable timeline:
// its span view plus its remaining events.
//
// The Chrome trace-event JSON format (the `chrome://tracing` / Perfetto
// legacy ingest format) models a trace as processes containing threads
// containing events.  We map the simulation onto it as:
//
//   process (pid)  = node + 1      (pid 0 collects node-less spans)
//   thread  (tid)  = the node that *initiated* the logical operation — the
//                    client driving the trace — so one client's calls line
//                    up on one lane inside every process they touch, and
//                    concurrent clients appear as parallel lanes on the
//                    server process exactly where virtual time overlaps.
//
// Spans (obs/spans.hpp) become complete events ("ph":"X", ts/dur in
// virtual µs); the other journal events become instants ("ph":"i");
// process/thread names are "M" metadata records.  Virtual time *is* the
// ts axis, so what Perfetto renders is the event-sequenced schedule
// itself, reproducible bit-for-bit from the seed.
#pragma once

#include <string>

#include "obs/journal.hpp"

namespace rafda::obs {

/// The whole trace as one JSON document:
/// {"displayTimeUnit":"ms","traceEvents":[...]}.  Every event carries the
/// required ph/ts/pid fields (tools/check.sh validates this contract).
std::string chrome_trace_json(const Journal& journal);

}  // namespace rafda::obs
