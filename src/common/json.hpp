/**
 * @file
 * Streaming JSON emission shared by the bench drivers and the sweep
 * layer.
 *
 * JsonWriter writes the figure drivers' --out files
 * (bench/sweep_driver.hpp re-exports it) and the sweep layer's
 * resumable cell store (vqa/sweep.hpp). Beyond plain emission:
 *
 *  - string values are escaped (quotes, backslashes, control chars),
 *    so labels can contain anything;
 *  - roundTripDoubles(true) switches double formatting from the
 *    human-oriented default-precision form to std::to_chars shortest
 *    round-trip form — a reader parsing the file recovers the exact
 *    bits. The sweep cell store needs this for its resume contract
 *    (carried rows must be bit-identical to the run that produced
 *    them); the figure JSONs keep the historical default;
 *  - beginInlineObject()/endInlineObject() emit an object on a single
 *    line ({"a": 1, "b": 2}), which keeps one sweep cell per line so a
 *    truncated file still yields every completed cell.
 */

#ifndef EFTVQA_COMMON_JSON_HPP
#define EFTVQA_COMMON_JSON_HPP

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

namespace eftvqa {

/**
 * Streaming JSON writer with comma/indent bookkeeping. Usage:
 *
 *   JsonWriter json(stream);
 *   json.beginObject();
 *   json.field("bench", "fig12");
 *   json.beginArray("rows");
 *   json.beginObject(); json.field("qubits", 16); json.endObject();
 *   json.endArray();
 *   json.endObject();
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    /** Doubles as shortest round-trip std::to_chars form (always with
     *  a '.' or exponent so readers can tell them from integers;
     *  non-finite values become null). Default off: ostream default
     *  precision, the historical bench format. */
    void
    roundTripDoubles(bool on)
    {
        round_trip_doubles_ = on;
    }

    void
    beginObject(const std::string &name = "")
    {
        open(name, '{');
    }

    void
    endObject()
    {
        close('}');
    }

    /** Object emitted on one line: fields separated by ", ", no
     *  newlines until the matching endInlineObject(). */
    void
    beginInlineObject(const std::string &name = "")
    {
        open(name, '{');
        ++inline_depth_;
    }

    void
    endInlineObject()
    {
        --inline_depth_;
        // Inline close: never reindent, the object is a single line.
        first_in_scope_.pop_back();
        os_ << '}';
    }

    void
    beginArray(const std::string &name = "")
    {
        open(name, '[');
    }

    void
    endArray()
    {
        close(']');
    }

    void
    field(const std::string &name, const std::string &value)
    {
        item(name);
        os_ << '"';
        writeEscaped(value);
        os_ << '"';
    }

    void
    field(const std::string &name, const char *value)
    {
        field(name, std::string(value));
    }

    void
    field(const std::string &name, double value)
    {
        item(name);
        writeDouble(value);
    }

    void
    field(const std::string &name, long long value)
    {
        item(name);
        os_ << value;
    }

    void
    field(const std::string &name, size_t value)
    {
        field(name, static_cast<long long>(value));
    }

    void
    field(const std::string &name, int value)
    {
        field(name, static_cast<long long>(value));
    }

    void
    field(const std::string &name, bool value)
    {
        item(name);
        os_ << (value ? "true" : "false");
    }

    /**
     * Emit @p json_text verbatim as the next value (or field value
     * when @p name is non-empty). The caller owns its validity. The
     * sweep cell store uses this to place pre-serialized, checksummed
     * cell lines inside the cells array — the checksum covers the
     * exact bytes written, so serialization must not touch them.
     */
    void
    rawValue(const std::string &json_text, const std::string &name = "")
    {
        item(name);
        os_ << json_text;
    }

  private:
    std::ostream &os_;
    std::vector<bool> first_in_scope_ = {true};
    size_t inline_depth_ = 0;
    bool round_trip_doubles_ = false;

    void
    indent()
    {
        for (size_t i = 1; i < first_in_scope_.size(); ++i)
            os_ << "  ";
    }

    void
    separate()
    {
        if (inline_depth_ > 0) {
            if (!first_in_scope_.back())
                os_ << ", ";
            first_in_scope_.back() = false;
            return;
        }
        if (!first_in_scope_.back())
            os_ << ",";
        // No newline before the very first top-level token: files
        // start with '{', not a blank line.
        if (first_in_scope_.size() > 1 || !first_in_scope_.back())
            os_ << "\n";
        first_in_scope_.back() = false;
        indent();
    }

    void
    item(const std::string &name)
    {
        separate();
        if (!name.empty()) {
            os_ << '"';
            writeEscaped(name);
            os_ << "\": ";
        }
    }

    void
    open(const std::string &name, char bracket)
    {
        item(name);
        os_ << bracket;
        first_in_scope_.push_back(true);
    }

    void
    close(char bracket)
    {
        const bool empty = first_in_scope_.back();
        first_in_scope_.pop_back();
        if (!empty) {
            os_ << "\n";
            indent();
        }
        os_ << bracket;
        if (first_in_scope_.size() == 1)
            os_ << "\n"; // top-level object closed: newline-terminate
    }

    void
    writeEscaped(const std::string &s)
    {
        for (const char c : s) {
            switch (c) {
              case '"': os_ << "\\\""; break;
              case '\\': os_ << "\\\\"; break;
              case '\n': os_ << "\\n"; break;
              case '\t': os_ << "\\t"; break;
              case '\r': os_ << "\\r"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    os_ << buf;
                } else {
                    os_ << c;
                }
            }
        }
    }

    void
    writeDouble(double value)
    {
        if (!round_trip_doubles_) {
            os_ << value;
            return;
        }
        if (!std::isfinite(value)) {
            // NaN / +-inf have no JSON spelling.
            os_ << "null";
            return;
        }
        char buf[40];
        const auto res = std::to_chars(buf, buf + sizeof(buf) - 4, value);
        *res.ptr = '\0';
        // Shortest form of an integral double is all digits ("16");
        // force a '.' so readers round-trip the type, not just the
        // value.
        if (std::strcspn(buf, ".eEnN") == std::strlen(buf)) {
            *res.ptr = '.';
            *(res.ptr + 1) = '0';
            *(res.ptr + 2) = '\0';
        }
        os_ << buf;
    }
};

} // namespace eftvqa

#endif // EFTVQA_COMMON_JSON_HPP
