#include "net/soapx.hpp"

#include <charconv>
#include <cstdio>
#include <string_view>
#include <system_error>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rafda::net {

namespace {

// ---- encoding -----------------------------------------------------------
//
// The document is appended piecewise to the caller's ByteWriter (in the
// RPC path a pooled frame), never assembled in an intermediate
// ostringstream.  The numeric formats below must stay byte-identical to
// the historical ostream output: std::to_string matches operator<< for
// integers, and "%.17g" matches a precision(17) defaultfloat stream for
// doubles (both pinned by SoapxFormat tests).

void append_text(ByteWriter& w, std::string_view v) { w.text(v); }

/// Escapes `v` straight into the frame: runs between specials are copied
/// as blocks, with no temporary string.
void append_escaped(ByteWriter& w, std::string_view v) {
    xml_escape(v, [&w](std::string_view piece) { w.text(piece); });
}

template <typename Int>
void append_int(ByteWriter& w, Int v) {
    w.text(std::to_string(v));
}

void append_double(ByteWriter& w, double v) {
    char buf[40];
    int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    w.text(std::string_view(buf, static_cast<std::size_t>(n)));
}

const char* tag_name(ValueTag t) {
    switch (t) {
        case ValueTag::Null: return "null";
        case ValueTag::Bool: return "bool";
        case ValueTag::Int: return "int";
        case ValueTag::Long: return "long";
        case ValueTag::Double: return "double";
        case ValueTag::Str: return "string";
        case ValueTag::Ref: return "ref";
    }
    return "?";
}

ValueTag tag_from_name(std::string_view name) {
    if (name == "null") return ValueTag::Null;
    if (name == "bool") return ValueTag::Bool;
    if (name == "int") return ValueTag::Int;
    if (name == "long") return ValueTag::Long;
    if (name == "double") return ValueTag::Double;
    if (name == "string") return ValueTag::Str;
    if (name == "ref") return ValueTag::Ref;
    throw CodecError("soapx: unknown value type " + std::string(name));
}

void encode_value(ByteWriter& w, std::string_view element, const MarshalledValue& v) {
    append_text(w, "<");
    append_text(w, element);
    append_text(w, " type=\"");
    append_text(w, tag_name(v.tag));
    append_text(w, "\"");
    switch (v.tag) {
        case ValueTag::Ref:
            append_text(w, " node=\"");
            append_int(w, v.ref_node);
            append_text(w, "\" oid=\"");
            append_int(w, v.ref_oid);
            append_text(w, "\" class=\"");
            append_escaped(w, v.ref_class);
            append_text(w, "\">");
            break;
        case ValueTag::Null:
            append_text(w, ">");
            break;
        case ValueTag::Bool:
            append_text(w, ">");
            append_text(w, v.b ? "true" : "false");
            break;
        case ValueTag::Int:
            append_text(w, ">");
            append_int(w, v.i);
            break;
        case ValueTag::Long:
            append_text(w, ">");
            append_int(w, v.j);
            break;
        case ValueTag::Double:
            append_text(w, ">");
            append_double(w, v.d);
            break;
        case ValueTag::Str:
            append_text(w, ">");
            append_escaped(w, v.s);
            break;
    }
    append_text(w, "</");
    append_text(w, element);
    append_text(w, ">");
}

const char* kind_name(RequestKind k) {
    switch (k) {
        case RequestKind::Invoke: return "invoke";
        case RequestKind::Create: return "create";
        case RequestKind::Discover: return "discover";
    }
    return "?";
}

RequestKind kind_from_name(std::string_view name) {
    if (name == "invoke") return RequestKind::Invoke;
    if (name == "create") return RequestKind::Create;
    if (name == "discover") return RequestKind::Discover;
    throw CodecError("soapx: unknown request kind " + std::string(name));
}

// ---- decoding -----------------------------------------------------------
//
// A pull scanner over the one document shape the encoder writes:
//
//   Envelope › Body › Request › arg*      Envelope › Body › Reply › result|fault
//
// Markup is matched as literals, in the encoder's order and spacing.
// Attribute values and character data are found with memchr-backed finds
// and unescaped in runs straight into the decoded field.  So the scanner
// accepts a subset of what a generic XML reader would: no whitespace
// between markup, no self-closing tags, no attributes beyond or out of the
// encoder's, no character data where the encoder writes none.  Missing,
// duplicate and extra attributes all fail a literal match, and the schema
// fixes the depth at four, so no input can make the decoder recurse.

/// Strict number parse: the whole text must be one number in range for
/// `T` — no sign on unsigned types, no whitespace, no trailing junk.  The
/// text is parsed as written: an entity could only unescape to a byte no
/// number holds, so a number with one is rejected either way.
template <typename T>
T parse_number(std::string_view text, const char* what) {
    T v{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        throw CodecError(std::string("soapx: bad ") + what + " \"" + std::string(text) +
                         "\"");
    return v;
}

std::string_view as_text(const Bytes& data) {
    if (data.empty()) return {};
    return std::string_view(reinterpret_cast<const char*>(data.data()), data.size());
}

class Scanner {
public:
    explicit Scanner(const Bytes& data) : text_(as_text(data)) {}

    /// Consumes `markup` if it comes next.
    bool accept(std::string_view markup) {
        if (text_.substr(pos_, markup.size()) != markup) return false;
        pos_ += markup.size();
        return true;
    }

    /// Consumes `markup`, which must come next.
    void expect(std::string_view markup) {
        if (!accept(markup)) fail("expected \"" + std::string(markup) + "\"");
    }

    /// Consumes ` name="value"` and returns the value as written.
    std::string_view attr(std::string_view name) {
        if (!accept(" ") || !accept(name) || !accept("=\""))
            fail("expected attribute " + std::string(name));
        const std::size_t close = text_.find('"', pos_);
        if (close == std::string_view::npos) fail("unterminated attribute");
        return take(close, 1);
    }

    /// The character data before the next tag, as written.
    std::string_view text() {
        const std::size_t tag = text_.find('<', pos_);
        if (tag == std::string_view::npos) fail("unterminated element");
        return take(tag, 0);
    }

    /// The document is exactly one root element: nothing may follow its
    /// close tag, not even whitespace the encoder never writes.
    void end() const {
        if (pos_ != text_.size()) fail("trailing content");
    }

    [[noreturn]] void fail(const std::string& what) const {
        throw CodecError("soapx: " + what + " at offset " + std::to_string(pos_));
    }

private:
    /// The bytes up to `stop`, then skips `skip` more.
    std::string_view take(std::size_t stop, std::size_t skip) {
        const std::string_view v = text_.substr(pos_, stop - pos_);
        pos_ = stop + skip;
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

/// The attributes and content of an <arg> or <result> element whose name
/// `s` has just consumed, up to (not including) its close tag.
MarshalledValue decode_value(Scanner& s) {
    MarshalledValue v;
    v.tag = tag_from_name(s.attr("type"));
    if (v.tag == ValueTag::Ref) {
        v.ref_node = parse_number<std::int32_t>(s.attr("node"), "ref node");
        v.ref_oid = parse_number<std::uint64_t>(s.attr("oid"), "ref oid");
        xml_unescape(s.attr("class"), v.ref_class);
    }
    s.expect(">");
    const std::string_view text = s.text();
    switch (v.tag) {
        case ValueTag::Null:
        case ValueTag::Ref:
            if (!text.empty()) s.fail("unexpected character data");
            break;
        case ValueTag::Bool:
            if (text != "true" && text != "false")
                throw CodecError("soapx: bad bool \"" + std::string(text) + "\"");
            v.b = text == "true";
            break;
        case ValueTag::Int: v.i = parse_number<std::int32_t>(text, "int"); break;
        case ValueTag::Long: v.j = parse_number<std::int64_t>(text, "long"); break;
        case ValueTag::Double: v.d = parse_number<double>(text, "double"); break;
        case ValueTag::Str: xml_unescape(text, v.s); break;
    }
    return v;
}

}  // namespace

const std::string& SoapxCodec::protocol() const {
    static const std::string name = "SOAP";
    return name;
}

void SoapxCodec::encode_request_into(const CallRequest& req, ByteWriter& w) const {
    append_text(w, "<Envelope><Body><Request kind=\"");
    append_text(w, kind_name(req.kind));
    append_text(w, "\" id=\"");
    append_int(w, req.request_id);
    append_text(w, "\" src=\"");
    append_int(w, req.src_node);
    append_text(w, "\" target=\"");
    append_int(w, req.target_oid);
    append_text(w, "\" class=\"");
    append_escaped(w, req.cls);
    append_text(w, "\" method=\"");
    append_escaped(w, req.method);
    append_text(w, "\" desc=\"");
    append_escaped(w, req.desc);
    append_text(w, "\" attempt=\"");
    append_int(w, req.attempt);
    append_text(w, "\" deadline=\"");
    append_int(w, req.deadline_us);
    append_text(w, "\">");
    for (const MarshalledValue& a : req.args) encode_value(w, "arg", a);
    append_text(w, "</Request></Body></Envelope>");
}

CallRequest SoapxCodec::decode_request(const Bytes& data) const {
    Scanner s(data);
    s.expect("<Envelope><Body><Request");
    // Exactly the nine attributes the encoder writes, in its order.
    CallRequest req;
    req.kind = kind_from_name(s.attr("kind"));
    req.request_id = parse_number<std::uint64_t>(s.attr("id"), "id");
    req.src_node = parse_number<std::int32_t>(s.attr("src"), "src");
    req.target_oid = parse_number<std::uint64_t>(s.attr("target"), "target");
    xml_unescape(s.attr("class"), req.cls);
    xml_unescape(s.attr("method"), req.method);
    xml_unescape(s.attr("desc"), req.desc);
    req.attempt = parse_number<std::uint32_t>(s.attr("attempt"), "attempt");
    req.deadline_us = parse_number<std::uint64_t>(s.attr("deadline"), "deadline");
    s.expect(">");
    while (s.accept("<arg")) {
        req.args.push_back(decode_value(s));
        s.expect("</arg>");
    }
    s.expect("</Request></Body></Envelope>");
    s.end();
    return req;
}

void SoapxCodec::encode_reply_into(const CallReply& reply, ByteWriter& w) const {
    append_text(w, "<Envelope><Body><Reply id=\"");
    append_int(w, reply.request_id);
    append_text(w, "\">");
    if (reply.is_fault) {
        append_text(w, "<fault class=\"");
        append_escaped(w, reply.fault_class);
        append_text(w, "\">");
        append_escaped(w, reply.fault_msg);
        append_text(w, "</fault>");
    } else {
        encode_value(w, "result", reply.result);
    }
    append_text(w, "</Reply></Body></Envelope>");
}

CallReply SoapxCodec::decode_reply(const Bytes& data) const {
    Scanner s(data);
    s.expect("<Envelope><Body><Reply");
    CallReply reply;
    reply.request_id = parse_number<std::uint64_t>(s.attr("id"), "id");
    s.expect(">");
    if (s.accept("<fault")) {
        reply.is_fault = true;
        xml_unescape(s.attr("class"), reply.fault_class);
        s.expect(">");
        xml_unescape(s.text(), reply.fault_msg);
        s.expect("</fault>");
    } else {
        s.expect("<result");
        reply.result = decode_value(s);
        s.expect("</result>");
    }
    s.expect("</Reply></Body></Envelope>");
    s.end();
    return reply;
}

}  // namespace rafda::net
