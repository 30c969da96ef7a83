/**
 * @file
 * The dependency-free JSON writer (src/driver/json.{hh,cc}), pinned
 * as text: one golden document covers jsonQuote's escapes, NaN and
 * the infinities written as null, the largest counter written
 * exactly, the %.17g form of a double, and nested and empty
 * containers. Every results document the sweep driver writes goes
 * through this writer, and CI compares those documents byte for byte
 * with the committed baseline, so its output must not drift.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "driver/json.hh"

namespace rnuma::driver
{

TEST(JsonWriter, GoldenDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("esc\"aped\\");
    w.value("q\" b\\ n\n r\r t\t c\x01 e\x1f");
    w.key("numbers");
    w.beginArray();
    w.value(std::nan(""));
    w.value(HUGE_VAL);
    w.value(-HUGE_VAL);
    w.value(std::numeric_limits<std::uint64_t>::max());
    // The baseline's `scale` lines are written in this form.
    w.value(0.1);
    w.endArray();
    w.key("nested");
    w.beginObject();
    w.key("empty_object");
    w.beginObject();
    w.endObject();
    w.key("empty_array");
    w.beginArray();
    w.endArray();
    w.key("list");
    w.beginArray();
    w.beginObject();
    w.key("a");
    w.value(1.5);
    w.endObject();
    w.value("x");
    w.endArray();
    w.endObject();
    w.endObject();

    EXPECT_EQ(os.str(), R"json({
  "esc\"aped\\": "q\" b\\ n\n r\r t\t c\u0001 e\u001f",
  "numbers": [
    null,
    null,
    null,
    18446744073709551615,
    0.10000000000000001
  ],
  "nested": {
    "empty_object": {
    },
    "empty_array": [
    ],
    "list": [
      {
        "a": 1.5
      },
      "x"
    ]
  }
})json");
}

} // namespace rnuma::driver
