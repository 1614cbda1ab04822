#include "net/corbx.hpp"

#include "support/error.hpp"

namespace rafda::net {

namespace {

constexpr char kMagic[4] = {'C', 'R', 'B', 'X'};
constexpr std::uint8_t kVersionMajor = 1;
constexpr std::uint8_t kVersionMinor = 0;
constexpr std::uint8_t kTypeRequest = 0;
constexpr std::uint8_t kTypeReply = 1;

/// CDR-style writer: pads to 4-byte alignment before multi-byte values.
/// Wraps the caller's ByteWriter (in the RPC path a pooled frame) and
/// aligns relative to where this message started, so the encoding is the
/// same whether the frame buffer was fresh or already held other bytes.
class CdrWriter {
public:
    explicit CdrWriter(ByteWriter& w) : w_(w), base_(w.size()) {}
    void align4() {
        static constexpr char kPad[4] = {};
        w_.text(std::string_view(kPad, (4 - (w_.size() - base_) % 4) % 4));
    }
    void u8(std::uint8_t v) { w_.u8(v); }
    void u32(std::uint32_t v) {
        align4();
        w_.u32(v);
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void u64(std::uint64_t v) {
        align4();
        w_.u64(v);
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) {
        align4();
        w_.f64(v);
    }
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        w_.text(s);
    }

private:
    ByteWriter& w_;
    std::size_t base_;
};

class CdrReader {
public:
    explicit CdrReader(const Bytes& data) : r_(data), size_(data.size()) {}
    void align4() { r_.text((4 - (size_ - r_.remaining()) % 4) % 4); }
    std::uint8_t u8() { return r_.u8(); }
    std::uint32_t u32() {
        align4();
        return r_.u32();
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::uint64_t u64() {
        align4();
        return r_.u64();
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() {
        align4();
        return r_.f64();
    }
    /// Like ByteReader::count, after CDR alignment.
    std::uint32_t count() {
        const std::uint32_t n = u32();
        if (n > r_.remaining()) throw CodecError("corbx: count exceeds message");
        return n;
    }
    /// A length-prefixed string: one bounds check, one block copy.
    std::string str() { return std::string(r_.text(u32())); }
    bool at_end() const { return r_.at_end(); }

private:
    ByteReader r_;
    std::size_t size_;
};

void write_value(CdrWriter& w, const MarshalledValue& v) {
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

MarshalledValue read_value(CdrReader& r) {
    MarshalledValue v;
    std::uint8_t tag = r.u8();
    if (tag > static_cast<std::uint8_t>(ValueTag::Ref))
        throw CodecError("corbx: bad value tag");
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

void write_header(CdrWriter& w, std::uint8_t type) {
    for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
    w.u8(kVersionMajor);
    w.u8(kVersionMinor);
    w.u8(type);
    w.u8(0);   // flags: none defined
    w.u32(0);  // body length (filled conceptually; unused by the simulator)
}

void read_header(CdrReader& r, std::uint8_t expected_type) {
    for (char c : kMagic)
        if (r.u8() != static_cast<std::uint8_t>(c)) throw CodecError("corbx: bad magic");
    if (r.u8() != kVersionMajor || r.u8() != kVersionMinor)
        throw CodecError("corbx: unsupported version");
    if (r.u8() != expected_type) throw CodecError("corbx: unexpected message type");
    if (r.u8() != 0) throw CodecError("corbx: unknown header flags");
    r.u32();  // body length
}

}  // namespace

const std::string& CorbxCodec::protocol() const {
    static const std::string name = "CORBA";
    return name;
}

void CorbxCodec::encode_request_into(const CallRequest& req, ByteWriter& out) const {
    CdrWriter w(out);
    write_header(w, kTypeRequest);
    w.u32(req.attempt);
    w.u64(req.deadline_us);
    w.u8(static_cast<std::uint8_t>(req.kind));
    w.u64(req.request_id);
    w.i32(req.src_node);
    w.u64(req.target_oid);
    w.str(req.cls);
    w.str(req.method);
    w.str(req.desc);
    w.u32(static_cast<std::uint32_t>(req.args.size()));
    for (const MarshalledValue& a : req.args) write_value(w, a);
}

CallRequest CorbxCodec::decode_request(const Bytes& data) const {
    CdrReader r(data);
    read_header(r, kTypeRequest);
    CallRequest req;
    req.attempt = r.u32();
    req.deadline_us = r.u64();
    std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(RequestKind::Discover))
        throw CodecError("corbx: bad request kind");
    req.kind = static_cast<RequestKind>(kind);
    req.request_id = r.u64();
    req.src_node = r.i32();
    req.target_oid = r.u64();
    req.cls = r.str();
    req.method = r.str();
    req.desc = r.str();
    const std::uint32_t n = r.count();
    req.args.reserve(n);
    for (std::uint32_t k = 0; k < n; ++k) req.args.push_back(read_value(r));
    if (!r.at_end()) throw CodecError("corbx: trailing bytes in request");
    return req;
}

void CorbxCodec::encode_reply_into(const CallReply& reply, ByteWriter& out) const {
    CdrWriter w(out);
    write_header(w, kTypeReply);
    w.u64(reply.request_id);
    w.u8(reply.is_fault ? 1 : 0);
    if (reply.is_fault) {
        w.str(reply.fault_class);
        w.str(reply.fault_msg);
    } else {
        write_value(w, reply.result);
    }
}

CallReply CorbxCodec::decode_reply(const Bytes& data) const {
    CdrReader r(data);
    read_header(r, kTypeReply);
    CallReply reply;
    reply.request_id = r.u64();
    reply.is_fault = r.u8() != 0;
    if (reply.is_fault) {
        reply.fault_class = r.str();
        reply.fault_msg = r.str();
    } else {
        reply.result = read_value(r);
    }
    if (!r.at_end()) throw CodecError("corbx: trailing bytes in reply");
    return reply;
}

}  // namespace rafda::net
