/**
 * @file
 * Minimal JSON writer for the sweep driver's machine-readable result
 * sink, with correct string escaping. The program only writes JSON;
 * it reads none. No third-party dependency.
 */

#ifndef RNUMA_DRIVER_JSON_HH
#define RNUMA_DRIVER_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>

namespace rnuma::driver
{

/** Escape and double-quote a string for JSON output. */
std::string jsonQuote(const std::string &s);

/**
 * Incremental writer producing indented JSON. The caller is
 * responsible for well-formed nesting; keys are escaped here.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Start "key": inside an object (next value attaches to it). */
    void key(const std::string &k);

    void value(const std::string &v);
    void value(const char *v) { value(std::string(v)); }
    void value(double v);
    void value(std::uint64_t v);

  private:
    void separate();
    void indent();

    std::ostream &os_;
    int depth_ = 0;
    bool need_comma_ = false;
    bool after_key_ = false;
};

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_JSON_HH
