#include "driver/json.hh"

#include <cmath>
#include <cstdio>

namespace rnuma::driver
{

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (need_comma_)
        os_ << ",";
    if (depth_ > 0) {
        os_ << "\n";
        indent();
    }
}

void
JsonWriter::indent()
{
    for (int i = 0; i < depth_; ++i)
        os_ << "  ";
}

void
JsonWriter::beginObject()
{
    separate();
    os_ << "{";
    depth_++;
    need_comma_ = false;
}

void
JsonWriter::endObject()
{
    depth_--;
    os_ << "\n";
    indent();
    os_ << "}";
    need_comma_ = true;
}

void
JsonWriter::beginArray()
{
    separate();
    os_ << "[";
    depth_++;
    need_comma_ = false;
}

void
JsonWriter::endArray()
{
    depth_--;
    os_ << "\n";
    indent();
    os_ << "]";
    need_comma_ = true;
}

void
JsonWriter::key(const std::string &k)
{
    separate();
    os_ << jsonQuote(k) << ": ";
    need_comma_ = false;
    after_key_ = true;
}

void
JsonWriter::value(const std::string &v)
{
    separate();
    os_ << jsonQuote(v);
    need_comma_ = true;
}

void
JsonWriter::value(double v)
{
    separate();
    if (std::isfinite(v)) {
        char buf[64];
        // %.17g, never a shorter form: the committed baseline's
        // `scale` lines (0.10000000000000001) are compared byte for
        // byte, so the digits written must not change.
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os_ << buf;
    } else {
        os_ << "null"; // NaN/inf are not representable in JSON
    }
    need_comma_ = true;
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    os_ << v;
    need_comma_ = true;
}

} // namespace rnuma::driver
