// Codec fuzz suite: wire frames are untrusted bytes, so every decoder must
// reject a damaged frame with CodecError — never crash, never let another
// exception type (std::bad_alloc from a corrupt count, std::out_of_range,
// ...) escape.  For each protocol the suite damages valid request, reply
// and RMIB batch-entry frames three ways:
//
//   - truncation at every offset, which must always be rejected;
//   - a random tail appended to an intact frame, which must always be
//     rejected;
//   - a fixed-seed set of 1–3 bit flips, which may still decode (the wire
//     has no integrity check yet) but may only ever fail with CodecError.
//
// It also feeds every decoder fixed-seed random bodies: a random-length
// prefix of a valid frame (often empty) followed by random bytes, drawn
// either uniformly or from the frame's own bytes so text protocols see
// plausible tokens.  Those may decode, but only CodecError may escape.
//
// SOAPX decodes with a pull scanner over its fixed schema.  Whenever it
// accepts a frame from any of these corpora, a reference decoder — a
// generic element-tree parser, kept here only as the oracle — must accept
// the same frame and decode an equal request or reply: the scanner may
// reject more than a generic XML reader would, never accept more, and
// never decode differently.
//
// The sanitize preset runs this suite under ASan+UBSan through ctest.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <charconv>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <typeinfo>
#include <vector>

#include "net/codec.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rafda::net {
namespace {

// ---- reference SOAPX decoder --------------------------------------------
//
// A generic element tree (name, attribute map, character data, children)
// read by a recursive-descent parser, then matched against the schema.
// It accepts whitespace between markup, attributes in any order, extra
// attributes outside <Request>, self-closing tags and ignored character
// data, so it is a superset of what the codec accepts.
namespace reference {

struct Element {
    std::string name;
    std::map<std::string, std::string> attrs;
    std::string text;
    std::vector<Element> children;

    const std::string& attr(const std::string& key) const {
        auto it = attrs.find(key);
        if (it == attrs.end()) throw CodecError("reference: missing attribute " + key);
        return it->second;
    }
};

template <typename T>
T number(std::string_view text) {
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end) throw CodecError("reference: bad number");
    return v;
}

constexpr int kMaxDepth = 4;

class Parser {
public:
    explicit Parser(const Bytes& data)
        : text_(reinterpret_cast<const char*>(data.data()), data.size()) {}

    Element document() {
        Element root = element(1);
        if (pos_ != text_.size()) fail();
        return root;
    }

private:
    [[noreturn]] static void fail() { throw CodecError("reference: malformed document"); }
    bool more() const { return pos_ < text_.size(); }
    void skip_ws() {
        while (more() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }

    Element element(int depth) {
        if (depth > kMaxDepth) fail();
        skip_ws();
        if (!more() || text_[pos_] != '<') fail();
        ++pos_;
        Element el;
        while (more() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                          text_[pos_] == '_'))
            el.name += text_[pos_++];
        if (el.name.empty()) fail();
        while (true) {
            skip_ws();
            if (!more()) fail();
            if (text_[pos_] == '>') {
                ++pos_;
                break;
            }
            if (text_[pos_] == '/') {
                ++pos_;
                if (!more() || text_[pos_] != '>') fail();
                ++pos_;
                return el;
            }
            std::string key;
            while (more() && text_[pos_] != '=' &&
                   !std::isspace(static_cast<unsigned char>(text_[pos_])))
                key += text_[pos_++];
            skip_ws();
            if (!more() || text_[pos_] != '=') fail();
            ++pos_;
            skip_ws();
            if (!more() || text_[pos_] != '"') fail();
            const std::size_t start = ++pos_;
            while (more() && text_[pos_] != '"') ++pos_;
            if (!more()) fail();
            if (!el.attrs.emplace(key, xml_unescape(text_.substr(start, pos_ - start))).second)
                fail();
            ++pos_;
        }
        while (true) {
            if (!more()) fail();
            if (text_[pos_] != '<') {
                el.text += text_[pos_++];
                continue;
            }
            if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
                pos_ += 2;
                const std::size_t start = pos_;
                while (more() && text_[pos_] != '>') ++pos_;
                if (!more() || text_.substr(start, pos_ - start) != el.name) fail();
                ++pos_;
                el.text = xml_unescape(el.text);
                return el;
            }
            el.children.push_back(element(depth + 1));
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

MarshalledValue value(const Element& el) {
    static const std::map<std::string, ValueTag> kTags = {
        {"null", ValueTag::Null}, {"bool", ValueTag::Bool},     {"int", ValueTag::Int},
        {"long", ValueTag::Long}, {"double", ValueTag::Double}, {"string", ValueTag::Str},
        {"ref", ValueTag::Ref}};
    const auto tag = kTags.find(el.attr("type"));
    if (tag == kTags.end()) throw CodecError("reference: unknown value type");
    MarshalledValue v;
    v.tag = tag->second;
    switch (v.tag) {
        case ValueTag::Null: break;
        case ValueTag::Bool:
            if (el.text != "true" && el.text != "false") throw CodecError("reference: bad bool");
            v.b = el.text == "true";
            break;
        case ValueTag::Int: v.i = number<std::int32_t>(el.text); break;
        case ValueTag::Long: v.j = number<std::int64_t>(el.text); break;
        case ValueTag::Double: v.d = number<double>(el.text); break;
        case ValueTag::Str: v.s = el.text; break;
        case ValueTag::Ref:
            v.ref_node = number<std::int32_t>(el.attr("node"));
            v.ref_oid = number<std::uint64_t>(el.attr("oid"));
            v.ref_class = el.attr("class");
            break;
    }
    return v;
}

const Element& only_child(const Element& el, const char* name) {
    if (el.children.size() != 1 || el.children[0].name != name)
        throw CodecError("reference: unexpected children");
    return el.children[0];
}

const Element& body_child(const Bytes& data, const char* name, Element& root) {
    root = Parser(data).document();
    if (root.name != "Envelope") throw CodecError("reference: expected <Envelope>");
    return only_child(only_child(root, "Body"), name);
}

CallRequest decode_request(const Bytes& data) {
    static const std::map<std::string, RequestKind> kKinds = {
        {"invoke", RequestKind::Invoke},
        {"create", RequestKind::Create},
        {"discover", RequestKind::Discover}};
    Element root;
    const Element& el = body_child(data, "Request", root);
    if (el.attrs.size() != 9) throw CodecError("reference: unexpected attribute");
    const auto kind = kKinds.find(el.attr("kind"));
    if (kind == kKinds.end()) throw CodecError("reference: unknown kind");
    CallRequest req;
    req.kind = kind->second;
    req.request_id = number<std::uint64_t>(el.attr("id"));
    req.src_node = number<std::int32_t>(el.attr("src"));
    req.target_oid = number<std::uint64_t>(el.attr("target"));
    req.cls = el.attr("class");
    req.method = el.attr("method");
    req.desc = el.attr("desc");
    req.attempt = number<std::uint32_t>(el.attr("attempt"));
    req.deadline_us = number<std::uint64_t>(el.attr("deadline"));
    for (const Element& child : el.children) {
        if (child.name != "arg") throw CodecError("reference: unexpected child");
        req.args.push_back(value(child));
    }
    return req;
}

CallReply decode_reply(const Bytes& data) {
    Element root;
    const Element& el = body_child(data, "Reply", root);
    CallReply reply;
    reply.request_id = number<std::uint64_t>(el.attr("id"));
    if (el.children.size() != 1) throw CodecError("reference: reply needs one child");
    const Element& payload = el.children[0];
    if (payload.name == "fault") {
        reply.is_fault = true;
        reply.fault_class = payload.attr("class");
        reply.fault_msg = payload.text;
    } else if (payload.name == "result") {
        reply.result = value(payload);
    } else {
        throw CodecError("reference: unexpected reply payload");
    }
    return reply;
}

}  // namespace reference

/// Field-for-field equality, with doubles compared by bit pattern so a
/// decoded NaN equals itself.
bool same(MarshalledValue a, MarshalledValue b) {
    if (std::bit_cast<std::uint64_t>(a.d) != std::bit_cast<std::uint64_t>(b.d)) return false;
    a.d = b.d = 0;
    return a == b;
}

bool same(CallRequest a, CallRequest b) {
    if (a.args.size() != b.args.size()) return false;
    for (std::size_t k = 0; k < a.args.size(); ++k)
        if (!same(a.args[k], b.args[k])) return false;
    a.args.clear();
    b.args.clear();
    return a == b;
}

bool same(CallReply a, CallReply b) {
    if (!same(a.result, b.result)) return false;
    a.result = b.result = {};
    return a == b;
}

/// Decodes `b` with the codec and, for SOAPX, checks the reference decoder
/// reads the same message from it.
template <typename Msg>
void agree_with_reference(const Codec& codec, const Bytes& b, const Msg& got,
                          Msg (*reference_decode)(const Bytes&)) {
    if (codec.protocol() != "SOAP") return;
    try {
        EXPECT_TRUE(same(got, reference_decode(b)))
            << "decoded differently from the reference: " << std::string(b.begin(), b.end());
    } catch (const CodecError& e) {
        ADD_FAILURE() << "accepted a frame the reference rejects (" << e.what()
                      << "): " << std::string(b.begin(), b.end());
    }
}

constexpr int kFlipMutantsPerFrame = 4000;
constexpr int kTailsPerFrame = 200;
constexpr int kRandomBodiesPerFrame = 2000;

using Decode = std::function<void(const Bytes&)>;

/// One valid frame and the decoder that reads it.
struct Frame {
    std::string name;
    Bytes bytes;
    Decode decode;
};

std::vector<CallRequest> sample_requests() {
    CallRequest invoke;
    invoke.kind = RequestKind::Invoke;
    invoke.request_id = 42;
    invoke.src_node = 3;
    invoke.target_oid = 1234567890123ULL;
    invoke.method = "m";
    invoke.desc = "(JLY_O_Int;)I";
    invoke.args = {MarshalledValue::of_long(-5),
                   MarshalledValue::of_ref(1, 99, "Y_O_Int"),
                   MarshalledValue::of_str("hello <world> & \"friends\""),
                   MarshalledValue::null(),
                   MarshalledValue::of_bool(true),
                   MarshalledValue::of_double(2.5),
                   MarshalledValue::of_int(-7)};

    CallRequest retry = invoke;  // nonzero reliability fields
    retry.attempt = 3;
    retry.deadline_us = 123'456'789ULL;

    CallRequest create;
    create.kind = RequestKind::Create;
    create.request_id = 7;
    create.cls = "Account";
    create.args = {MarshalledValue::of_int(10), MarshalledValue::of_str("owner")};

    CallRequest discover;
    discover.kind = RequestKind::Discover;
    discover.request_id = 8;
    discover.src_node = 1;
    discover.cls = "Registry";
    return {invoke, retry, create, discover};
}

std::vector<CallReply> sample_replies() {
    CallReply value;
    value.request_id = 42;
    value.result = MarshalledValue::of_ref(2, 17, "C_O_Int");

    CallReply text;
    text.request_id = 43;
    text.result = MarshalledValue::of_str("a <reply> & more");

    CallReply fault;
    fault.request_id = 7;
    fault.is_fault = true;
    fault.fault_class = "RemoteFault";
    fault.fault_msg = "link <0->1> lost & gone";
    return {value, text, fault};
}

std::vector<Frame> frames_of(const Codec& codec) {
    std::vector<Frame> out;
    const auto requests = sample_requests();
    for (std::size_t k = 0; k < requests.size(); ++k)
        out.push_back({"request#" + std::to_string(k), codec.encode_request(requests[k]),
                       [&codec](const Bytes& b) {
                           agree_with_reference(codec, b, codec.decode_request(b),
                                                &reference::decode_request);
                       }});
    const auto replies = sample_replies();
    for (std::size_t k = 0; k < replies.size(); ++k)
        out.push_back({"reply#" + std::to_string(k), codec.encode_reply(replies[k]),
                       [&codec](const Bytes& b) {
                           agree_with_reference(codec, b, codec.decode_reply(b),
                                                &reference::decode_reply);
                       }});
    if (codec.supports_batch_entries()) {
        for (std::size_t k = 0; k < requests.size(); ++k) {
            const CallRequest& req = requests[k];
            // The frame opened two requests earlier: a nonzero id delta.
            const BatchContext ctx{req.src_node, req.request_id - 2};
            ByteWriter w;
            codec.encode_batch_entry(req, ctx, w);
            out.push_back({"batch-entry#" + std::to_string(k), w.take(),
                           [&codec, ctx](const Bytes& b) {
                               codec.decode_batch_entry(b, ctx);
                           }});
        }
    }
    return out;
}

enum class Outcome { Decoded, Rejected, Escaped };

/// Runs one decode; anything but success or CodecError is a test failure.
Outcome decode_once(const Frame& f, const Bytes& bytes, const std::string& what) {
    try {
        f.decode(bytes);
        return Outcome::Decoded;
    } catch (const CodecError&) {
        return Outcome::Rejected;
    } catch (const std::exception& e) {
        ADD_FAILURE() << f.name << " " << what << ": escaped as " << typeid(e).name()
                      << ": " << e.what();
    } catch (...) {
        ADD_FAILURE() << f.name << " " << what << ": escaped as a non-std exception";
    }
    return Outcome::Escaped;
}

class CodecFuzz : public ::testing::TestWithParam<const char*> {
protected:
    std::unique_ptr<Codec> codec_ = make_codec(GetParam());
};

TEST_P(CodecFuzz, ValidFramesDecode) {
    for (const Frame& f : frames_of(*codec_))
        EXPECT_EQ(decode_once(f, f.bytes, "intact"), Outcome::Decoded) << f.name;
}

TEST_P(CodecFuzz, TruncationAtEveryOffsetIsRejected) {
    for (const Frame& f : frames_of(*codec_)) {
        for (std::size_t len = 0; len < f.bytes.size(); ++len) {
            const Bytes prefix(f.bytes.begin(), f.bytes.begin() + len);
            EXPECT_EQ(decode_once(f, prefix, "truncated to " + std::to_string(len)),
                      Outcome::Rejected)
                << f.name << " decoded from its first " << len << " of "
                << f.bytes.size() << " bytes";
        }
    }
}

TEST_P(CodecFuzz, BitFlipsOnlyEverRaiseCodecError) {
    Rng rng(0xF022);
    std::size_t escaped = 0;
    std::size_t rejected = 0;
    for (const Frame& f : frames_of(*codec_)) {
        for (int m = 0; m < kFlipMutantsPerFrame; ++m) {
            Bytes mutant = f.bytes;
            const auto flips = 1 + rng.below(3);
            for (std::uint64_t k = 0; k < flips; ++k) {
                const std::size_t bit = rng.below(mutant.size() * 8);
                mutant[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            }
            const Outcome o = decode_once(f, mutant, "mutant " + std::to_string(m));
            escaped += o == Outcome::Escaped;
            rejected += o == Outcome::Rejected;
        }
    }
    EXPECT_EQ(escaped, 0u);
    // The flips really do reach the decoders' error paths.
    EXPECT_GT(rejected, 0u);
}

TEST_P(CodecFuzz, RandomTailsAreRejected) {
    Rng rng(0x7A11);
    for (const Frame& f : frames_of(*codec_)) {
        for (int m = 0; m < kTailsPerFrame; ++m) {
            Bytes extended = f.bytes;
            const auto extra = 1 + rng.below(16);
            for (std::uint64_t k = 0; k < extra; ++k)
                extended.push_back(static_cast<std::uint8_t>(rng.below(256)));
            EXPECT_EQ(decode_once(f, extended, "tail " + std::to_string(m)),
                      Outcome::Rejected)
                << f.name << " decoded with " << extra << " bytes appended";
        }
    }
}

TEST_P(CodecFuzz, RandomBodiesOnlyEverRaiseCodecError) {
    Rng rng(0xB0D1);
    std::size_t escaped = 0;
    std::size_t rejected = 0;
    for (const Frame& f : frames_of(*codec_)) {
        for (int m = 0; m < kRandomBodiesPerFrame; ++m) {
            const bool with_prefix = rng.chance(0.5);
            const std::size_t keep = with_prefix ? rng.below(f.bytes.size() + 1) : 0;
            Bytes body(f.bytes.begin(), f.bytes.begin() + static_cast<std::ptrdiff_t>(keep));
            const bool from_frame = rng.chance(0.5);
            const auto len = rng.below(2 * f.bytes.size() + 1);
            for (std::uint64_t k = 0; k < len; ++k)
                body.push_back(from_frame ? f.bytes[rng.below(f.bytes.size())]
                                          : static_cast<std::uint8_t>(rng.below(256)));
            const Outcome o = decode_once(f, body, "random body " + std::to_string(m));
            escaped += o == Outcome::Escaped;
            rejected += o == Outcome::Rejected;
        }
    }
    EXPECT_EQ(escaped, 0u);
    EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, CodecFuzz, ::testing::Values("RMI", "SOAP", "CORBA"));

}  // namespace
}  // namespace rafda::net
