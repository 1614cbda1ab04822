#include "net/rmib.hpp"

#include "support/error.hpp"

namespace rafda::net {

namespace {

// Every request carries attempt and deadline_us as LEB128 varints, so a
// first attempt without a deadline pays one byte for each.
constexpr std::uint8_t kMagicRequest = 0xA1;
constexpr std::uint8_t kMagicReply = 0xA2;
// Batch-continuation entry: a request coalesced into an already-open
// frame on a busy link.  It omits src_node (pinned by the frame) and
// carries request_id as a varint delta from the frame-opening call.  Only
// decodable against the BatchContext the encoder used, so decode_request
// rejects it outright.
constexpr std::uint8_t kMagicBatchEntry = 0xA4;

void write_value(ByteWriter& w, const MarshalledValue& v) {
    w.u8(static_cast<std::uint8_t>(v.tag));
    switch (v.tag) {
        case ValueTag::Null: break;
        case ValueTag::Bool: w.u8(v.b ? 1 : 0); break;
        case ValueTag::Int: w.i32(v.i); break;
        case ValueTag::Long: w.i64(v.j); break;
        case ValueTag::Double: w.f64(v.d); break;
        case ValueTag::Str: w.str(v.s); break;
        case ValueTag::Ref:
            w.i32(v.ref_node);
            w.u64(v.ref_oid);
            w.str(v.ref_class);
            break;
    }
}

MarshalledValue read_value(ByteReader& r) {
    MarshalledValue v;
    std::uint8_t tag = r.u8();
    if (tag > static_cast<std::uint8_t>(ValueTag::Ref))
        throw CodecError("rmib: bad value tag");
    v.tag = static_cast<ValueTag>(tag);
    switch (v.tag) {
        case ValueTag::Null: break;
        case ValueTag::Bool: v.b = r.u8() != 0; break;
        case ValueTag::Int: v.i = r.i32(); break;
        case ValueTag::Long: v.j = r.i64(); break;
        case ValueTag::Double: v.d = r.f64(); break;
        case ValueTag::Str: v.s = r.str(); break;
        case ValueTag::Ref:
            v.ref_node = r.i32();
            v.ref_oid = r.u64();
            v.ref_class = r.str();
            break;
    }
    return v;
}

std::uint8_t checked_kind(std::uint8_t kind) {
    if (kind > static_cast<std::uint8_t>(RequestKind::Discover))
        throw CodecError("rmib: bad request kind");
    return kind;
}

// Shared tail of a request and a batch entry: the reliability fields,
// then the call itself.
void write_call_body(ByteWriter& w, const CallRequest& req) {
    w.varu64(req.attempt);
    w.varu64(req.deadline_us);
    w.u64(req.target_oid);
    w.str(req.cls);
    w.str(req.method);
    w.str(req.desc);
    w.u32(static_cast<std::uint32_t>(req.args.size()));
    for (const MarshalledValue& a : req.args) write_value(w, a);
}

void read_call_body(ByteReader& r, CallRequest& req) {
    const std::uint64_t attempt = r.varu64();
    if (attempt > UINT32_MAX) throw CodecError("rmib: attempt out of range");
    req.attempt = static_cast<std::uint32_t>(attempt);
    req.deadline_us = r.varu64();
    req.target_oid = r.u64();
    req.cls = r.str();
    req.method = r.str();
    req.desc = r.str();
    const std::uint32_t n = r.count();
    req.args.reserve(n);
    for (std::uint32_t k = 0; k < n; ++k) req.args.push_back(read_value(r));
}

}  // namespace

const std::string& RmibCodec::protocol() const {
    static const std::string name = "RMI";
    return name;
}

void RmibCodec::encode_request_into(const CallRequest& req, ByteWriter& w) const {
    w.u8(kMagicRequest);
    w.u8(static_cast<std::uint8_t>(req.kind));
    w.u64(req.request_id);
    w.i32(req.src_node);
    write_call_body(w, req);
}

CallRequest RmibCodec::decode_request(const Bytes& data) const {
    ByteReader r(data);
    const std::uint8_t magic = r.u8();
    if (magic == kMagicBatchEntry)
        throw CodecError("rmib: batch entry outside a batch frame");
    if (magic != kMagicRequest) throw CodecError("rmib: bad request magic");
    CallRequest req;
    req.kind = static_cast<RequestKind>(checked_kind(r.u8()));
    req.request_id = r.u64();
    req.src_node = r.i32();
    read_call_body(r, req);
    if (!r.at_end()) throw CodecError("rmib: trailing bytes in request");
    return req;
}

void RmibCodec::encode_batch_entry(const CallRequest& req, const BatchContext& ctx,
                                   ByteWriter& w) const {
    if (req.src_node != ctx.src_node)
        throw CodecError("rmib: batch entry from a different source node");
    if (req.request_id < ctx.base_request_id)
        throw CodecError("rmib: batch entry precedes the frame-opening call");
    w.u8(kMagicBatchEntry);
    w.varu64(req.request_id - ctx.base_request_id);
    w.u8(static_cast<std::uint8_t>(req.kind));
    write_call_body(w, req);
}

CallRequest RmibCodec::decode_batch_entry(const Bytes& data,
                                          const BatchContext& ctx) const {
    ByteReader r(data);
    if (r.u8() != kMagicBatchEntry) throw CodecError("rmib: bad batch-entry magic");
    CallRequest req;
    req.src_node = ctx.src_node;
    req.request_id = ctx.base_request_id + r.varu64();
    req.kind = static_cast<RequestKind>(checked_kind(r.u8()));
    read_call_body(r, req);
    if (!r.at_end()) throw CodecError("rmib: trailing bytes in batch entry");
    return req;
}

void RmibCodec::encode_reply_into(const CallReply& reply, ByteWriter& w) const {
    w.u8(kMagicReply);
    w.u64(reply.request_id);
    w.u8(reply.is_fault ? 1 : 0);
    if (reply.is_fault) {
        w.str(reply.fault_class);
        w.str(reply.fault_msg);
    } else {
        write_value(w, reply.result);
    }
}

CallReply RmibCodec::decode_reply(const Bytes& data) const {
    ByteReader r(data);
    if (r.u8() != kMagicReply) throw CodecError("rmib: bad reply magic");
    CallReply reply;
    reply.request_id = r.u64();
    reply.is_fault = r.u8() != 0;
    if (reply.is_fault) {
        reply.fault_class = r.str();
        reply.fault_msg = r.str();
    } else {
        reply.result = read_value(r);
    }
    if (!r.at_end()) throw CodecError("rmib: trailing bytes in reply");
    return reply;
}

}  // namespace rafda::net
