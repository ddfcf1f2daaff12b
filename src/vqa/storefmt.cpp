#include "vqa/storefmt.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace eftvqa {
namespace storefmt {

namespace {

/**
 * Minimal parser for the store's one-line cell objects:
 * {"name": value, ...} with string / number / bool / null values.
 * Returns false (ignoring the line) on anything else.
 */
class FlatObjectParser
{
  public:
    explicit FlatObjectParser(std::string_view text) : p_(text) {}

    bool
    parse(std::string &key, std::string &label, SweepRow &row)
    {
        skipWs();
        if (!eat('{'))
            return false;
        skipWs();
        if (eat('}'))
            return true;
        for (;;) {
            std::string name;
            if (!parseString(name))
                return false;
            skipWs();
            if (!eat(':'))
                return false;
            skipWs();
            if (!parseValue(name, key, label, row))
                return false;
            skipWs();
            if (eat('}'))
                return true;
            if (!eat(','))
                return false;
            skipWs();
        }
    }

  private:
    std::string_view p_;

    void
    skipWs()
    {
        while (!p_.empty() &&
               (p_[0] == ' ' || p_[0] == '\t' || p_[0] == '\r'))
            p_.remove_prefix(1);
    }

    bool
    eat(char c)
    {
        if (p_.empty() || p_[0] != c)
            return false;
        p_.remove_prefix(1);
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (!p_.empty()) {
            const char c = p_[0];
            p_.remove_prefix(1);
            if (c == '"')
                return true;
            if (c == '\\') {
                if (p_.empty())
                    return false;
                const char esc = p_[0];
                p_.remove_prefix(1);
                switch (esc) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'r': out.push_back('\r'); break;
                  case 'u':
                    if (p_.size() < 4)
                        return false;
                    out.push_back(static_cast<char>(std::strtol(
                        std::string(p_.substr(0, 4)).c_str(), nullptr,
                        16)));
                    p_.remove_prefix(4);
                    break;
                  default: return false;
                }
            } else {
                out.push_back(c);
            }
        }
        return false;
    }

    bool
    parseValue(const std::string &name, std::string &key,
               std::string &label, SweepRow &row)
    {
        if (!p_.empty() && p_[0] == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            if (name == "key")
                key = std::move(s);
            else if (name == "label")
                label = std::move(s);
            else
                row.set(name, std::move(s));
            return true;
        }
        if (p_.starts_with("true")) {
            p_.remove_prefix(4);
            row.set(name, true);
            return true;
        }
        if (p_.starts_with("false")) {
            p_.remove_prefix(5);
            row.set(name, false);
            return true;
        }
        if (p_.starts_with("null")) {
            p_.remove_prefix(4);
            row.set(name, std::nan(""));
            return true;
        }
        // Number token.
        size_t len = 0;
        bool is_double = false;
        while (len < p_.size()) {
            const char c = p_[len];
            if (c == '.' || c == 'e' || c == 'E')
                is_double = true;
            else if (!(c == '-' || c == '+' || (c >= '0' && c <= '9')))
                break;
            ++len;
        }
        if (len == 0)
            return false;
        const std::string token(p_.substr(0, len));
        p_.remove_prefix(len);
        errno = 0;
        if (is_double) {
            char *end = nullptr;
            const double v = std::strtod(token.c_str(), &end);
            if (end != token.c_str() + token.size())
                return false;
            row.set(name, v);
        } else {
            char *end = nullptr;
            const long long v = std::strtoll(token.c_str(), &end, 10);
            if (end != token.c_str() + token.size())
                return false;
            row.set(name, v);
        }
        return true;
    }
};

constexpr std::string_view kCrcMarker = ", \"crc\": \"";

} // namespace

uint64_t
fnv1a64(std::string_view text)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
serializeCellPayload(const std::string &key, const std::string &label,
                     const SweepRow &row)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.roundTripDoubles(true);
    json.beginInlineObject();
    json.field("key", key);
    json.field("label", label);
    for (const auto &[name, value] : row.fields())
        std::visit([&](const auto &v) { json.field(name, v); }, value);
    json.endInlineObject();
    return oss.str();
}

std::string
checksummedCellLine(const std::string &payload)
{
    std::string line = payload;
    line.pop_back(); // the '}' the crc field slips in front of
    line += kCrcMarker;
    line += hex64(fnv1a64(payload));
    line += "\"}";
    return line;
}

bool
parseCellPayload(std::string_view payload, std::string &key,
                 std::string &label, SweepRow &row)
{
    FlatObjectParser parser(payload);
    return parser.parse(key, label, row);
}

bool
parseChecksummedLine(const std::string &object_text, std::string &key,
                     std::string &label, SweepRow &row)
{
    if (object_text.size() < 2 || object_text.front() != '{' ||
        object_text.back() != '}')
        return false; // torn line
    const size_t pos = object_text.rfind(kCrcMarker);
    if (pos == std::string::npos)
        return false; // no checksum
    const size_t crc_begin = pos + kCrcMarker.size();
    if (object_text.size() < crc_begin + 2 ||
        object_text.compare(object_text.size() - 2, 2, "\"}") != 0)
        return false;
    const std::string crc_text = object_text.substr(
        crc_begin, object_text.size() - 2 - crc_begin);
    char *end = nullptr;
    errno = 0;
    const uint64_t stored =
        std::strtoull(crc_text.c_str(), &end, 16);
    if (end == crc_text.c_str() || *end != '\0')
        return false;
    std::string payload = object_text.substr(0, pos);
    payload += '}';
    if (fnv1a64(payload) != stored)
        return false; // bit rot (or a truncated-then-glued line)
    FlatObjectParser parser(payload);
    return parser.parse(key, label, row);
}

StoreScan
readStoreCells(const std::string &path)
{
    StoreScan scan;
    std::ifstream is(path);
    if (!is)
        return scan;
    scan.found = true;
    std::string line;
    while (std::getline(is, line)) {
        // Strip the array-separator comma JsonWriter appends to the
        // previous line and any trailing whitespace.
        while (!line.empty() &&
               (line.back() == ',' || line.back() == ' ' ||
                line.back() == '\r' || line.back() == '\t'))
            line.pop_back();
        if (line.find("\"key\"") == std::string::npos) {
            // Header or summary line; remember the sweep name so a
            // merged store keeps it.
            const size_t name_at = line.find("\"sweep\": \"");
            if (name_at != std::string::npos && scan.sweep_name.empty()) {
                const size_t begin = name_at + 10;
                const size_t end = line.find('"', begin);
                if (end != std::string::npos)
                    scan.sweep_name = line.substr(begin, end - begin);
            }
            continue;
        }
        const size_t open = line.find('{');
        const std::string object_text =
            open == std::string::npos ? std::string() : line.substr(open);
        StoreCell cell;
        if (!parseChecksummedLine(object_text, cell.key, cell.label,
                                  cell.row) ||
            cell.key.empty()) {
            scan.corrupt.push_back(line);
            continue;
        }
        cell.line = object_text;
        cell.marker = cell.row.has("quarantined");
        scan.cells.push_back(std::move(cell));
    }
    return scan;
}

void
validateRowFields(const std::string &who, const SweepRow &row)
{
    for (const auto &f : row.fields())
        if (f.first == "key" || f.first == "label" || f.first == "crc" ||
            f.first == "quarantined")
            throw std::invalid_argument(
                who + ": row field name '" + f.first +
                "' is reserved for cell metadata");
}

void
writeJsonStore(const std::string &path, const std::string &sweep_name,
               const std::vector<std::string> &lines)
{
    // Full rewrite into a sibling file, then an atomic rename: a
    // crash at any point leaves either the previous snapshot or the
    // new one, never a torn file.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            throw std::runtime_error("writeJsonStore: cannot write " +
                                     tmp);
        JsonWriter json(os);
        json.roundTripDoubles(true);
        json.beginObject();
        json.field("sweep", sweep_name);
        json.beginArray("cells");
        for (const std::string &line : lines)
            // Serialized out-of-band and emitted verbatim: the crc
            // covers the exact payload bytes on disk.
            json.rawValue(line);
        json.endArray();
        json.endObject();
        os.flush();
        if (!os)
            throw std::runtime_error("writeJsonStore: write to " + tmp +
                                     " failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("writeJsonStore: cannot rename " +
                                 tmp + " to " + path);
    fsyncParentDir(path);
}

void
fsyncParentDir(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? std::string(".")
                                   : path.substr(0, slash + 1);
    const int fd =
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        // Unopenable parent (permissions, exotic fs): the rename is
        // already visible, only its power-loss durability is best
        // effort — exactly the pre-fsync behaviour.
        return;
    if (::fsync(fd) != 0 && errno != EINVAL && errno != EROFS) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("fsyncParentDir: fsync of '" + dir +
                                 "' failed: " + std::strerror(err));
    }
    ::close(fd);
}

} // namespace storefmt
} // namespace eftvqa
