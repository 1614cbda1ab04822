#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/rmib.hpp"
#include "net/soapx.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace rafda::net {
namespace {

CallRequest sample_request() {
    CallRequest req;
    req.kind = RequestKind::Invoke;
    req.request_id = 42;
    req.src_node = 3;
    req.target_oid = 1234567890123ULL;
    req.cls = "";
    req.method = "m";
    req.desc = "(JLY_O_Int;)I";
    req.args.push_back(MarshalledValue::of_long(-5));
    req.args.push_back(MarshalledValue::of_ref(1, 99, "Y_O_Int"));
    req.args.push_back(MarshalledValue::of_str("hello <world> & \"friends\""));
    req.args.push_back(MarshalledValue::null());
    req.args.push_back(MarshalledValue::of_bool(true));
    req.args.push_back(MarshalledValue::of_double(2.5));
    req.args.push_back(MarshalledValue::of_int(-7));
    return req;
}

class BothCodecs : public ::testing::TestWithParam<const char*> {
protected:
    std::unique_ptr<Codec> codec_ = make_codec(GetParam());
};

TEST_P(BothCodecs, RequestRoundTrip) {
    CallRequest req = sample_request();
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
}

TEST_P(BothCodecs, CreateAndDiscoverRoundTrip) {
    CallRequest req;
    req.kind = RequestKind::Create;
    req.request_id = 1;
    req.src_node = 0;
    req.cls = "Account";
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    req.kind = RequestKind::Discover;
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
}

TEST_P(BothCodecs, ReplyRoundTrip) {
    CallReply reply;
    reply.request_id = 42;
    reply.result = MarshalledValue::of_ref(2, 17, "C_O_Int");
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

TEST_P(BothCodecs, FaultReplyRoundTrip) {
    CallReply reply;
    reply.request_id = 7;
    reply.is_fault = true;
    reply.fault_class = "RemoteFault";
    reply.fault_msg = "link <0->1> lost & gone";
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

TEST_P(BothCodecs, EmptyArgsAndStrings) {
    CallRequest req;
    req.kind = RequestKind::Invoke;
    req.method = "f";
    req.desc = "()V";
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    CallReply reply;
    reply.result = MarshalledValue::of_str("");
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

TEST_P(BothCodecs, ExtremeNumerics) {
    CallReply reply;
    reply.result = MarshalledValue::of_long(std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
    reply.result = MarshalledValue::of_double(1e-300);
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

TEST_P(BothCodecs, ReliabilityExtensionRoundTrips) {
    CallRequest req = sample_request();
    req.attempt = 3;
    req.deadline_us = 123'456'789ULL;
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    req.attempt = 0;
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    req.attempt = 1;
    req.deadline_us = 0;
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    req.attempt = std::numeric_limits<std::uint32_t>::max();
    req.deadline_us = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
}

TEST_P(BothCodecs, EveryRequestUsesTheOneLayout) {
    // A first attempt and a retry with a deadline share one framing: the
    // same RMIB magic, a zero CORBX flags byte, and SOAPX attempt and
    // deadline attributes on both.  Only the field values differ.
    CallRequest first = sample_request();
    CallRequest retry = first;
    retry.attempt = 2;
    retry.deadline_us = 500;
    for (const CallRequest& req : {first, retry}) {
        const Bytes wire = codec_->encode_request(req);
        const std::string proto = codec_->protocol();
        if (proto == "RMI") {
            EXPECT_EQ(wire.at(0), 0xA1);
        } else if (proto == "CORBA") {
            // CRBX header: magic(4) ver(2) type(1) flags(1).
            EXPECT_EQ(wire.at(7), 0x00);
        } else {
            const std::string text(wire.begin(), wire.end());
            EXPECT_NE(text.find(" attempt=\""), std::string::npos);
            EXPECT_NE(text.find(" deadline=\""), std::string::npos);
        }
    }
}

TEST_P(BothCodecs, RejectsTrailingBytes) {
    const CallRequest req = sample_request();
    for (std::size_t extra : {1, 2, 4}) {
        Bytes request = codec_->encode_request(req);
        Bytes reply = codec_->encode_reply(CallReply{});
        for (std::size_t k = 0; k < extra; ++k) {
            request.push_back(k == 0 ? '<' : 0x00);
            reply.push_back(k == 0 ? '<' : 0x00);
        }
        EXPECT_THROW(codec_->decode_request(request), CodecError) << extra;
        EXPECT_THROW(codec_->decode_reply(reply), CodecError) << extra;
    }
}

TEST_P(BothCodecs, BatchingOffUsesPerCallFraming) {
    // With batching off (the default), the RPC path encodes through
    // encode_request_into — identical framing whether the destination
    // buffer is fresh or a reused pooled frame with leftover capacity.
    CallRequest req = sample_request();
    const Bytes fresh = codec_->encode_request(req);
    Bytes pooled_frame;
    pooled_frame.reserve(4096);
    pooled_frame.push_back(0xEE);  // stale content from a previous lease
    ByteWriter w(pooled_frame);
    codec_->encode_request_into(req, w);
    EXPECT_EQ(pooled_frame, fresh);
    EXPECT_EQ(codec_->decode_request(pooled_frame), req);
}

TEST_P(BothCodecs, OnlyRmibSupportsBatchEntries) {
    const bool is_rmi = codec_->protocol() == "RMI";
    EXPECT_EQ(codec_->supports_batch_entries(), is_rmi);
    if (!is_rmi) {
        CallRequest req = sample_request();
        BatchContext ctx{req.src_node, req.request_id};
        ByteWriter w;
        EXPECT_THROW(codec_->encode_batch_entry(req, ctx, w), CodecError);
        EXPECT_THROW(codec_->decode_batch_entry(codec_->encode_request(req), ctx),
                     CodecError);
    }
}

TEST_P(BothCodecs, LargeStringRoundTrip) {
    // 64 KiB cycling through every byte value, so each XML special, NUL and
    // every byte >= 0x80 recur throughout one long payload.
    std::string big(64 * 1024, '\0');
    for (std::size_t k = 0; k < big.size(); ++k) big[k] = static_cast<char>(k * 7 % 256);
    CallRequest req = sample_request();
    req.args = {MarshalledValue::of_str(big), MarshalledValue::of_ref(1, 2, big)};
    EXPECT_EQ(codec_->decode_request(codec_->encode_request(req)), req);
    CallReply reply;
    reply.result = MarshalledValue::of_str(big);
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
    reply.result = {};
    reply.is_fault = true;
    reply.fault_class = big;
    reply.fault_msg = big;
    EXPECT_EQ(codec_->decode_reply(codec_->encode_reply(reply)), reply);
}

INSTANTIATE_TEST_SUITE_P(Protocols, BothCodecs,
                         ::testing::Values("RMI", "SOAP", "CORBA"));

/// A zero-argument Create frame with the u32 `back` bytes from its end
/// overwritten by 0xFFFFFFFF — a count no frame of this size can hold.
Bytes with_huge_u32_at_back(const Codec& codec, std::size_t back) {
    CallRequest req;
    req.kind = RequestKind::Create;
    req.request_id = 1;
    Bytes frame = codec.encode_request(req);
    for (std::size_t k = frame.size() - back; k < frame.size() - back + 4; ++k)
        frame[k] = 0xFF;
    return frame;
}

// Regression: a corrupt count used to reach reserve() and escape as
// std::bad_alloc; it must be rejected as a CodecError first.
TEST(Codecs, RmibArgCountBeyondFrameIsCodecError) {
    const auto codec = make_codec("RMI");
    EXPECT_THROW(codec->decode_request(with_huge_u32_at_back(*codec, 4)), CodecError);
}

TEST(Codecs, CorbxArgCountBeyondFrameIsCodecError) {
    const auto codec = make_codec("CORBA");
    EXPECT_THROW(codec->decode_request(with_huge_u32_at_back(*codec, 4)), CodecError);
}

TEST(Codecs, CorbxStringLengthBeyondFrameIsCodecError) {
    // The empty desc string's length word sits just before the arg count.
    const auto codec = make_codec("CORBA");
    EXPECT_THROW(codec->decode_request(with_huge_u32_at_back(*codec, 8)), CodecError);
}

TEST(Codecs, RmibRejectsAnyOtherRequestMagic) {
    // 0xA1 is the only request magic; 0xA4 is a batch entry, which only
    // decodes against its frame's context.
    Bytes wire = RmibCodec().encode_request(sample_request());
    for (std::uint8_t magic : {0xA2, 0xA3, 0xA4, 0x00}) {
        wire[0] = magic;
        EXPECT_THROW(RmibCodec().decode_request(wire), CodecError) << int(magic);
    }
}

TEST(Codecs, CorbxRejectsNonZeroHeaderFlags) {
    const auto codec = make_codec("CORBA");
    Bytes wire = codec->encode_request(sample_request());
    for (std::uint8_t flags : {0x01, 0x02, 0x80}) {
        wire[7] = flags;
        EXPECT_THROW(codec->decode_request(wire), CodecError) << int(flags);
    }
}

/// SOAPX request text with `attrs` on the <Request> element.
Bytes soap_request_with(const std::string& attrs) {
    const std::string xml = "<Envelope><Body><Request " + attrs +
                            "><arg type=\"int\">-3</arg></Request></Body></Envelope>";
    return Bytes(xml.begin(), xml.end());
}

const std::string kSoapBase =
    "kind=\"invoke\" id=\"9\" src=\"1\" target=\"5\" class=\"\" method=\"m\" "
    "desc=\"(I)I\"";

TEST(Codecs, SoapRequiresAttemptAndDeadline) {
    SoapxCodec soapx;
    EXPECT_NO_THROW(
        soapx.decode_request(soap_request_with(kSoapBase + " attempt=\"0\" deadline=\"0\"")));
    EXPECT_THROW(soapx.decode_request(soap_request_with(kSoapBase)), CodecError);
    EXPECT_THROW(soapx.decode_request(soap_request_with(kSoapBase + " attempt=\"0\"")),
                 CodecError);
    EXPECT_THROW(soapx.decode_request(soap_request_with(kSoapBase + " deadline=\"0\"")),
                 CodecError);
    // Attributes the encoder never writes are rejected too.
    EXPECT_THROW(soapx.decode_request(soap_request_with(
                     kSoapBase + " trace=\"0\" span=\"0\" attempt=\"0\" deadline=\"0\"")),
                 CodecError);
    // Nor may an attribute appear twice.
    EXPECT_THROW(soapx.decode_request(soap_request_with(
                     kSoapBase + " attempt=\"0\" deadline=\"0\" id=\"10\"")),
                 CodecError);
}

TEST(Codecs, SoapNumbersAreParsedStrictly) {
    SoapxCodec soapx;
    const std::string tail = " attempt=\"0\" deadline=\"0\"";
    auto with = [&](const std::string& key, const std::string& value) {
        std::string attrs = kSoapBase + tail;
        const std::string needle = " " + key + "=\"";
        const std::size_t at = attrs.find(needle) + needle.size();
        attrs.replace(at, attrs.find('"', at) - at, value);
        return soap_request_with(attrs);
    };
    EXPECT_EQ(soapx.decode_request(with("id", "7")).request_id, 7u);
    for (const auto& [key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"id", "x7"}, {"id", "7x"}, {"id", ""}, {"id", "-1"}, {"id", " 7"},
             {"id", "18446744073709551616"}, {"src", "-3zz"}, {"src", "2147483648"},
             {"target", "+5"}, {"attempt", "4294967296"}, {"deadline", "1e3"}})
        EXPECT_THROW(soapx.decode_request(with(key, value)), CodecError)
            << key << "=\"" << value << '"';

    auto reply_with = [](const std::string& id, const std::string& result) {
        const std::string xml = "<Envelope><Body><Reply id=\"" + id + "\">" + result +
                                "</Reply></Body></Envelope>";
        return Bytes(xml.begin(), xml.end());
    };
    EXPECT_EQ(soapx.decode_reply(reply_with("3", "<result type=\"bool\">false</result>"))
                  .result,
              MarshalledValue::of_bool(false));
    for (const std::string& bad :
         {std::string("<result type=\"bool\">yes</result>"),
          std::string("<result type=\"bool\">TRUE</result>"),
          std::string("<result type=\"int\">12abc</result>"),
          std::string("<result type=\"int\">2147483648</result>"),
          std::string("<result type=\"long\">9223372036854775808</result>"),
          std::string("<result type=\"double\">1.5.2</result>"),
          std::string("<result type=\"double\">1e999</result>"),
          std::string("<result type=\"ref\" node=\"1x\" oid=\"2\" class=\"C\"></result>"),
          std::string("<result type=\"ref\" node=\"1\" oid=\"-2\" class=\"C\"></result>")})
        EXPECT_THROW(soapx.decode_reply(reply_with("3", bad)), CodecError) << bad;
    EXPECT_THROW(soapx.decode_reply(reply_with("3z", "<result type=\"null\"></result>")),
                 CodecError);
}

TEST(Codecs, SoapDeepNestingIsCodecError) {
    // A recursive element parser would overflow the stack on this frame;
    // the scanner's fixed schema rejects it at the first unexpected tag.
    constexpr int kLevels = 100'000;
    std::string xml;
    xml.reserve(7 * kLevels);
    for (int k = 0; k < kLevels; ++k) xml += "<a>";
    for (int k = 0; k < kLevels; ++k) xml += "</a>";
    const Bytes wire(xml.begin(), xml.end());
    SoapxCodec soapx;
    EXPECT_THROW(soapx.decode_request(wire), CodecError);
    EXPECT_THROW(soapx.decode_reply(wire), CodecError);
    // A value element with a child is one level past the deepest valid
    // frame.
    EXPECT_THROW(soapx.decode_request(soap_request_with(
                     kSoapBase + " attempt=\"0\" deadline=\"0\"><arg type=\"null\"><x/></arg")),
                 CodecError);
}

TEST(Codecs, SoapAcceptsOnlyTheEncodersLayout) {
    // The decoder reads the one layout the encoder writes.  Each variant
    // below is well-formed XML that a generic reader would accept, and
    // each is rejected.
    const std::string attrs = kSoapBase + " attempt=\"0\" deadline=\"0\"";
    SoapxCodec soapx;
    EXPECT_EQ(soapx.decode_request(soap_request_with(attrs)).args,
              std::vector<MarshalledValue>{MarshalledValue::of_int(-3)});
    auto text_of = [](const Bytes& b) { return std::string(b.begin(), b.end()); };
    const std::string good = text_of(soap_request_with(attrs));
    auto replaced = [&](const std::string& from, const std::string& to) {
        std::string xml = good;
        xml.replace(xml.find(from), from.size(), to);
        return Bytes(xml.begin(), xml.end());
    };
    for (const Bytes& bad :
         {replaced("<Body>", " <Body>"), replaced("<Body>", "<Body >"),
          replaced("<Envelope>", "<Envelope xmlns=\"x\">"),
          replaced("<arg type=\"int\">-3</arg>", "<arg type=\"null\"/>"),
          replaced("<arg type=\"int\">-3</arg>", "<arg type=\"null\">x</arg>"),
          replaced("<arg type=\"int\">", "<arg type=\"int\" x=\"1\">"),
          replaced("<arg type=\"int\">", "<arg  type=\"int\">"),
          replaced("kind=\"invoke\" id=\"9\"", "id=\"9\" kind=\"invoke\""),
          replaced("kind=\"invoke\"", "kind = \"invoke\""),
          replaced("\"><arg", "\">\n<arg"), replaced("</Request>", "</Request >")})
        EXPECT_THROW(soapx.decode_request(bad), CodecError) << text_of(bad);
}

TEST(Codecs, SoapExtensionAttributesDecode) {
    // The reliability attributes carry through a decode of the literal
    // document.
    const std::string xml =
        "<Envelope><Body><Request kind=\"invoke\" id=\"9\""
        " src=\"1\" target=\"5\" class=\"\" method=\"m\" desc=\"()V\""
        " attempt=\"4\" deadline=\"123456\"></Request></Body></Envelope>";
    CallRequest req = SoapxCodec().decode_request(Bytes(xml.begin(), xml.end()));
    EXPECT_EQ(req.attempt, 4u);
    EXPECT_EQ(req.deadline_us, 123456u);
}

// ---- Golden frames --------------------------------------------------------
//
// The exact bytes of one call and its reply whose strings hold every XML
// special, an apostrophe (which SOAPX leaves as is) and a two-byte UTF-8
// sequence, with a Ref whose class name holds '&'.  Any codec rewrite must
// reproduce them byte for byte.

const std::string kGoldenText = "a<b>c&d\"e'f\xC3\xA9" "g";

CallRequest golden_request() {
    CallRequest req;
    req.kind = RequestKind::Invoke;
    req.request_id = 77;
    req.src_node = 2;
    req.target_oid = 4096;
    req.method = "echo";
    req.desc = "(LR&D;S)S";
    req.attempt = 1;
    req.deadline_us = 300;
    req.args = {MarshalledValue::of_ref(1, 99, "R&D_O_Int"), MarshalledValue::of_str(kGoldenText),
                MarshalledValue::of_double(-0.25)};
    return req;
}

CallReply golden_reply() {
    CallReply reply;
    reply.request_id = 77;
    reply.result = MarshalledValue::of_str(kGoldenText);
    return reply;
}

std::string hex(const Bytes& b) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t c : b) {
        out += kDigits[c >> 4];
        out += kDigits[c & 15];
    }
    return out;
}

TEST(GoldenFrames, Soapx) {
    SoapxCodec soapx;
    const Bytes request = soapx.encode_request(golden_request());
    EXPECT_EQ(std::string(request.begin(), request.end()),
              "<Envelope><Body><Request kind=\"invoke\" id=\"77\" src=\"2\" target=\"4096\" "
              "class=\"\" method=\"echo\" desc=\"(LR&amp;D;S)S\" attempt=\"1\" "
              "deadline=\"300\"><arg type=\"ref\" node=\"1\" oid=\"99\" "
              "class=\"R&amp;D_O_Int\"></arg><arg type=\"string\">"
              "a&lt;b&gt;c&amp;d&quot;e'f\xC3\xA9" "g</arg><arg type=\"double\">-0.25</arg>"
              "</Request></Body></Envelope>");
    EXPECT_EQ(soapx.decode_request(request), golden_request());
    const Bytes reply = soapx.encode_reply(golden_reply());
    EXPECT_EQ(std::string(reply.begin(), reply.end()),
              "<Envelope><Body><Reply id=\"77\"><result type=\"string\">"
              "a&lt;b&gt;c&amp;d&quot;e'f\xC3\xA9" "g</result></Reply></Body></Envelope>");
    EXPECT_EQ(soapx.decode_reply(reply), golden_reply());
}

TEST(GoldenFrames, Corbx) {
    const auto corbx = make_codec("CORBA");
    const Bytes request = corbx->encode_request(golden_request());
    EXPECT_EQ(hex(request),
              "435242580100000000000000010000002c01000000000000000000004d000000"
              "0000000002000000001000000000000000000000040000006563686f09000000"
              "284c5226443b5329530000000300000006000000010000006300000000000000"
              "090000005226445f4f5f496e740500000e000000613c623e63266422652766c3"
              "a9670400000000000000d0bf");
    EXPECT_EQ(corbx->decode_request(request), golden_request());
    const Bytes reply = corbx->encode_reply(golden_reply());
    EXPECT_EQ(hex(reply),
              "4352425801000100000000004d00000000000000000500000e000000613c623e"
              "63266422652766c3a967");
    EXPECT_EQ(corbx->decode_reply(reply), golden_reply());
}

// ---- RMIB batch-entry framing (DESIGN.md §17) ---------------------------

TEST(RmibBatch, EntryRoundTripsAgainstItsContext) {
    RmibCodec rmib;
    CallRequest req = sample_request();
    BatchContext ctx{req.src_node, 40};  // id 42 -> delta 2
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    Bytes wire = w.take();
    EXPECT_EQ(wire.at(0), 0xA4);
    EXPECT_EQ(rmib.decode_batch_entry(wire, ctx), req);
    // Entries omit src_node and shrink the id to a varint delta, so the
    // coalesced framing is strictly smaller than a standalone request.
    EXPECT_LT(wire.size(), rmib.encode_request(req).size());
}

TEST(RmibBatch, ReliabilityFieldsAreVarints) {
    RmibCodec rmib;
    CallRequest req = sample_request();
    BatchContext ctx{req.src_node, req.request_id};  // delta 0
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    const Bytes first = w.take();
    EXPECT_EQ(rmib.decode_batch_entry(first, ctx), req);

    req.attempt = 3;         // one varint byte, as 0 was
    req.deadline_us = 9999;  // two varint bytes instead of one
    ByteWriter w2;
    rmib.encode_batch_entry(req, ctx, w2);
    const Bytes retry = w2.take();
    EXPECT_EQ(retry.size(), first.size() + 1);
    EXPECT_EQ(rmib.decode_batch_entry(retry, ctx), req);
}

TEST(RmibBatch, DecodeRequestRejectsBatchEntry) {
    // An entry is only meaningful against the frame that opened the lane;
    // the standalone decoder must refuse it rather than misparse.
    RmibCodec rmib;
    CallRequest req = sample_request();
    BatchContext ctx{req.src_node, req.request_id};
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    EXPECT_THROW(rmib.decode_request(w.take()), CodecError);
}

TEST(RmibBatch, EncodeValidatesAgainstContext) {
    RmibCodec rmib;
    CallRequest req = sample_request();
    ByteWriter w;
    BatchContext wrong_src{req.src_node + 1, req.request_id};
    EXPECT_THROW(rmib.encode_batch_entry(req, wrong_src, w), CodecError);
    BatchContext later_base{req.src_node, req.request_id + 1};
    EXPECT_THROW(rmib.encode_batch_entry(req, later_base, w), CodecError);
}

TEST(RmibBatch, DecodeRejectsTrailingBytes) {
    RmibCodec rmib;
    CallRequest req = sample_request();
    BatchContext ctx{req.src_node, req.request_id};
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    Bytes trailing = w.take();
    trailing.push_back(0xff);
    EXPECT_THROW(rmib.decode_batch_entry(trailing, ctx), CodecError);
}

TEST(RmibBatch, LargeIdDeltaRoundTrips) {
    // The varint delta must survive multi-byte encodings.
    RmibCodec rmib;
    CallRequest req = sample_request();
    req.request_id = 1'000'000'042ULL;
    BatchContext ctx{req.src_node, 42};
    ByteWriter w;
    rmib.encode_batch_entry(req, ctx, w);
    EXPECT_EQ(rmib.decode_batch_entry(w.take(), ctx).request_id, req.request_id);
}

// ---- SOAPX numeric formatting pins --------------------------------------
//
// The streaming encoder replaced an ostringstream; these differential
// tests pin that std::to_string and snprintf("%.17g") reproduce the
// historical ostream output byte for byte, which the E5/E8 wire-size
// guarantees depend on.

TEST(SoapxFormat, ToStringMatchesOstreamForIntegers) {
    for (long long v : {0LL, 1LL, -1LL, 42LL, -12345678901234LL,
                        9223372036854775807LL, -9223372036854775807LL - 1}) {
        std::ostringstream os;
        os << v;
        EXPECT_EQ(std::to_string(v), os.str()) << v;
    }
}

TEST(SoapxFormat, Snprintf17gMatchesOstreamPrecision17) {
    for (double v : {0.0, -0.0, 1.0, 2.5, 0.1, 1.0 / 3.0, 1e300, 1e-300,
                     -1.7976931348623157e308, 12345678901234567.0, 6.02214076e23}) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        std::ostringstream os;
        os.precision(17);
        os << v;
        EXPECT_EQ(std::string(buf), os.str()) << v;
    }
}

TEST(Codecs, SoapIsLargerOnTheWire) {
    RmibCodec rmib;
    SoapxCodec soapx;
    CallRequest req = sample_request();
    EXPECT_GT(soapx.encode_request(req).size(), 2 * rmib.encode_request(req).size());
}

TEST(Codecs, SoapIsMoreExpensivePerByte) {
    RmibCodec rmib;
    SoapxCodec soapx;
    EXPECT_GT(soapx.cpu_cost_ns_per_byte(), rmib.cpu_cost_ns_per_byte());
}

TEST(Codecs, RmibRejectsGarbage) {
    RmibCodec rmib;
    Bytes junk{0x00, 0x01, 0x02};
    EXPECT_THROW(rmib.decode_request(junk), CodecError);
    EXPECT_THROW(rmib.decode_reply(junk), CodecError);
    EXPECT_THROW(rmib.decode_request(Bytes{}), CodecError);
}

TEST(Codecs, SoapRejectsGarbage) {
    SoapxCodec soapx;
    std::string junk = "<Envelope><Body></Body>";
    EXPECT_THROW(soapx.decode_request(Bytes(junk.begin(), junk.end())), CodecError);
    std::string wrong = "<Envelope><Body><Nope></Nope></Body></Envelope>";
    EXPECT_THROW(soapx.decode_request(Bytes(wrong.begin(), wrong.end())), CodecError);
}

TEST(Codecs, MakeCodecUnknownProtocol) {
    EXPECT_THROW(make_codec("DCOM"), CodecError);
    EXPECT_THROW(make_codec(""), CodecError);
}

TEST(Codecs, WireSizeOrderingRmiCorbaSoap) {
    // CORBX pays a GIOP-ish header and CDR alignment over RMIB, but stays
    // far below SOAPX's text encoding.
    CallRequest req = sample_request();
    std::size_t rmi = make_codec("RMI")->encode_request(req).size();
    std::size_t corba = make_codec("CORBA")->encode_request(req).size();
    std::size_t soap = make_codec("SOAP")->encode_request(req).size();
    EXPECT_LT(rmi, corba);
    EXPECT_LT(corba, soap);
}

TEST(Codecs, CorbxRejectsGarbage) {
    auto corba = make_codec("CORBA");
    Bytes junk{'N', 'O', 'P', 'E', 1, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_THROW(corba->decode_request(junk), CodecError);
    // A reply is not a request.
    CallReply reply;
    EXPECT_THROW(corba->decode_request(corba->encode_reply(reply)), CodecError);
}

TEST(Codecs, CrossCodecMessagesAreIncompatible) {
    // A SOAP payload must not decode as RMIB (and vice versa) — proxies and
    // skeletons must agree on the protocol.
    RmibCodec rmib;
    SoapxCodec soapx;
    EXPECT_THROW(rmib.decode_request(soapx.encode_request(sample_request())), CodecError);
}

}  // namespace
}  // namespace rafda::net
