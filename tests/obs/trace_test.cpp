// Span tracing on the journal: explicit spans are begin/end events on the
// journal's open-span stack, and the span view (obs/spans.hpp) reads them
// back — with the RPC stage spans derived from lifecycle events — as a
// forest of traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/journal.hpp"
#include "obs/spans.hpp"

namespace rafda::obs {
namespace {

using Kind = JournalEvent::Kind;

/// Fixture with a hand-cranked virtual clock.
struct TracerFixture : ::testing::Test {
    Journal journal;
    std::uint64_t clock = 0;

    void SetUp() override { journal.set_enabled(true); }

    std::uint64_t begin(const std::string& name, std::int32_t node = -1) {
        return journal.begin_span(clock, node, name);
    }
    void end(std::uint64_t id) { journal.end_span(id, clock); }

    std::vector<Span> spans() const { return spans_of(journal); }

    static const Span* find(const std::vector<Span>& spans, const std::string& name) {
        for (const Span& s : spans)
            if (s.name == name) return &s;
        return nullptr;
    }
};

TEST(Tracer, DisabledIsInert) {
    Journal j;
    EXPECT_FALSE(j.enabled());
    EXPECT_EQ(j.begin_span(5, 0, "x"), 0u);
    j.end_span(0, 6);  // id 0 is a no-op
    EXPECT_EQ(j.size(), 0u);
    EXPECT_TRUE(spans_of(j).empty());
    EXPECT_EQ(j.current_span(), 0u);
}

TEST_F(TracerFixture, NestingSharesTraceAndRecordsTimes) {
    std::uint64_t root = begin("outer", 0);
    clock = 10;
    std::uint64_t child = begin("inner", 1);
    EXPECT_EQ(journal.current_span(), child);
    clock = 25;
    end(child);
    EXPECT_EQ(journal.current_span(), root);
    clock = 40;
    end(root);
    EXPECT_EQ(journal.current_span(), 0u);

    const std::vector<Span> all = spans();
    ASSERT_EQ(all.size(), 2u);
    const Span& o = all[0];
    const Span& i = all[1];
    EXPECT_EQ(o.parent, 0u);
    EXPECT_EQ(o.trace, o.id);  // a root starts a new trace
    EXPECT_EQ(i.parent, o.id);
    EXPECT_EQ(i.trace, o.trace);
    EXPECT_EQ(i.node, 1);
    EXPECT_EQ(i.start_us, 10u);
    EXPECT_EQ(i.end_us, 25u);
    EXPECT_EQ(i.duration_us(), 15u);
    EXPECT_EQ(o.duration_us(), 40u);
}

TEST_F(TracerFixture, NewRootStartsNewTrace) {
    end(begin("a"));
    end(begin("b"));
    const std::vector<Span> all = spans();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_NE(all[0].trace, all[1].trace);
}

TEST_F(TracerFixture, EndClosesDescendantsLeftOpen) {
    std::uint64_t a = begin("a");
    begin("b");
    begin("c");
    clock = 99;
    end(a);  // closes c, b, then a
    for (const Span& s : spans()) EXPECT_EQ(s.end_us, 99u);
    EXPECT_EQ(journal.current_span(), 0u);
}

TEST_F(TracerFixture, DispatchTakesParentFromOpenStack) {
    // The server side of a synchronous call: whatever is open at dispatch
    // (the caller's invoke) parents the dispatch, and the end of handling
    // closes it again.
    std::uint64_t root = journal.begin_span(0, 0, "rpc.invoke C.poke", 1, 7);
    journal.record(Kind::RpcDispatch, 3, 1, 0, 7, 0, "poke");
    EXPECT_NE(journal.current_span(), root);
    journal.record(Kind::RpcHandled, 4, 1, 0, 7, 0, {});
    EXPECT_EQ(journal.current_span(), root);
    journal.end_span(root, 9);

    const std::vector<Span> all = spans();
    const Span* invoke = find(all, "rpc.invoke C.poke");
    const Span* d = find(all, "rpc.dispatch poke");
    ASSERT_NE(invoke, nullptr);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->parent, invoke->id);
    EXPECT_EQ(d->trace, invoke->trace);
    EXPECT_EQ(d->node, 1);
    EXPECT_EQ(d->start_us, 3u);
    EXPECT_EQ(d->end_us, 4u);
    EXPECT_EQ(invoke->target_node, 1);
}

TEST_F(TracerFixture, DispatchWithNothingOpenStartsATrace) {
    journal.record(Kind::RpcDispatch, 3, 2, 0, 7, 0, "orphan");
    journal.record(Kind::RpcHandled, 4, 2, 0, 7, 0, {});
    const std::vector<Span> all = spans();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].parent, 0u);
    EXPECT_EQ(all[0].trace, all[0].id);
}

TEST_F(TracerFixture, NoteAttachesToInnermostOpenSpan) {
    std::uint64_t a = begin("a");
    begin("b");
    journal.record(Kind::Migrate, clock, 0, 1, 61, 62, "C");
    end(a);
    const std::vector<Span> all = spans();
    EXPECT_TRUE(find(all, "a")->events.empty());
    ASSERT_EQ(find(all, "b")->events.size(), 1u);
    EXPECT_EQ(find(all, "b")->events[0].kind, Kind::Migrate);
    EXPECT_EQ(find(all, "b")->events[0].a, 61u);
}

TEST_F(TracerFixture, ScopedSpanClosesOnException) {
    try {
        SpanScope outer(journal, &clock, -1, [] { return "outer"; });
        SpanScope inner(journal, &clock, -1, [] { return "inner"; });
        clock = 7;
        throw std::runtime_error("dropped");
    } catch (const std::runtime_error&) {
    }
    // Both spans closed by unwinding; the open stack is consistent again.
    EXPECT_EQ(journal.current_span(), 0u);
    const std::vector<Span> all = spans();
    EXPECT_EQ(find(all, "outer")->end_us, 7u);
    EXPECT_EQ(find(all, "inner")->end_us, 7u);
}

TEST_F(TracerFixture, ClearDropsSpansAndOpenStack) {
    begin("a");
    journal.clear();
    EXPECT_TRUE(spans().empty());
    EXPECT_EQ(journal.current_span(), 0u);
}

TEST_F(TracerFixture, StageSpansPairConsecutiveLifecycleEvents) {
    // One remote call's journal, as System::rpc records it.
    std::uint64_t invoke = journal.begin_span(100, 0, "rpc.invoke C.poke", 1, 7);
    journal.record(Kind::RpcSend, 101, 0, 1, 7, 61, "C.poke");
    journal.record(Kind::RpcArrive, 302, 1, 0, 7, 61, "RMI");
    journal.record(Kind::RpcDispatch, 303, 1, 0, 7, 0, "poke");
    journal.record(Kind::RpcHandled, 304, 1, 0, 7, 0, {});
    journal.record(Kind::RpcReplySend, 305, 1, 0, 7, 15, {});
    journal.record(Kind::RpcReply, 505, 0, 1, 7, 15, {});
    journal.record(Kind::RpcReplyDecoded, 506, 0, 1, 7, 0, {});
    journal.end_span(invoke, 506);

    const std::vector<Span> all = spans();
    ASSERT_EQ(all.size(), 8u);
    const std::vector<std::string> names{
        "rpc.invoke C.poke",        "codec.encode_request RMI",
        "net.transfer 0->1",        "codec.decode_request RMI",
        "rpc.dispatch poke",        "codec.encode_reply RMI",
        "net.transfer 1->0",        "codec.decode_reply RMI"};
    for (std::size_t k = 0; k < names.size(); ++k) {
        EXPECT_EQ(all[k].name, names[k]);
        EXPECT_EQ(all[k].parent, k ? all[0].id : 0u) << names[k];
    }
    const Span* out = find(all, "net.transfer 0->1");
    EXPECT_EQ(out->start_us, 101u);
    EXPECT_EQ(out->end_us, 302u);
    EXPECT_EQ(out->node, 0);
    ASSERT_EQ(out->events.size(), 1u);  // the send, with its bytes
    EXPECT_EQ(out->events[0].kind, Kind::RpcSend);
    EXPECT_EQ(out->events[0].b, 61u);
    EXPECT_EQ(find(all, "codec.decode_reply RMI")->node, 0);
    EXPECT_EQ(find(all, "codec.encode_reply RMI")->node, 1);
}

TEST_F(TracerFixture, RenderTreeShowsNestingAndNotes) {
    std::uint64_t a = journal.begin_span(clock, 0, "rpc.invoke C.poke", 1, 7);
    journal.record(Kind::RpcSend, clock, 0, 1, 7, 61, "C.poke");
    journal.record(Kind::RpcDrop, clock, 0, 1, 7, 0, "request");
    journal.end_span(a, clock);

    std::string tree = render_tree(spans());
    EXPECT_NE(tree.find("trace "), std::string::npos);
    EXPECT_NE(tree.find("rpc.invoke C.poke"), std::string::npos);
    EXPECT_NE(tree.find("(node 0)"), std::string::npos);
    EXPECT_NE(tree.find("target_node=1"), std::string::npos);
    // The child renders indented under the root with a branch glyph, its
    // events inline.
    EXPECT_NE(tree.find("└─ net.transfer 0->1"), std::string::npos) << tree;
    EXPECT_NE(tree.find("drop(a=7 request)"), std::string::npos) << tree;
}

TEST_F(TracerFixture, ToJsonIsOneLine) {
    std::uint64_t a = begin("a \"quoted\"", 0);
    journal.record(Kind::Migrate, clock, 0, 1, 61, 62, "k");
    end(a);
    std::string json = spans_json(spans());
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"name\":\"a \\\"quoted\\\"\""), std::string::npos);
    EXPECT_NE(json.find("\"events\":[{\"seq\":2,"), std::string::npos) << json;
    EXPECT_NE(json.find("\"kind\":\"migrate\""), std::string::npos);
}

}  // namespace
}  // namespace rafda::obs
