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
// The sanitize preset runs this suite under ASan+UBSan through ctest.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "net/codec.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace rafda::net {
namespace {

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
                       [&codec](const Bytes& b) { codec.decode_request(b); }});
    const auto replies = sample_replies();
    for (std::size_t k = 0; k < replies.size(); ++k)
        out.push_back({"reply#" + std::to_string(k), codec.encode_reply(replies[k]),
                       [&codec](const Bytes& b) { codec.decode_reply(b); }});
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
