#include "common/json.hh"

#include <cstdio>

#include "common/logging.hh"

namespace vpr
{

namespace
{

/** Recursive-descent reader of the flat-object grammar. */
class FlatJsonParser
{
  public:
    FlatJsonParser(const std::string &text, const std::string &source,
                   bool allowArrays)
        : text(text), source(source), allowArrays(allowArrays)
    {
    }

    JsonFields
    parse()
    {
        JsonFields fields;
        skipSpace();
        if (!consume('{'))
            fail("expected '{'");
        skipSpace();
        if (!consume('}')) {
            for (;;) {
                std::string key = parseString();
                skipSpace();
                if (!consume(':'))
                    fail("expected ':' after \"" + key + "\"");
                std::vector<std::string> values = parseValue(key);
                fields.emplace_back(std::move(key), std::move(values));
                skipSpace();
                if (consume('}'))
                    break;
                if (!consume(','))
                    fail("expected ',' or '}'");
            }
        }
        skipSpace();
        if (pos != text.size())
            fail("trailing content after object");
        return fields;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        VPR_FATAL("bad JSON ", source, ": ", what, " at offset ", pos);
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        skipSpace();
        if (!consume('"'))
            fail("expected '\"'");
        std::string out;
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                break;
            const char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              default:
                fail(std::string("unsupported escape '\\") + esc + "'");
            }
        }
        fail("unterminated string");
    }

    /** A value: one string, or (if allowed) an array of strings. */
    std::vector<std::string>
    parseValue(const std::string &key)
    {
        std::vector<std::string> values;
        skipSpace();
        if (allowArrays && consume('[')) {
            skipSpace();
            if (consume(']'))
                return values;
            for (;;) {
                values.push_back(parseString());
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return values;
                fail("expected ',' or ']' in \"" + key + "\"");
            }
        }
        if (pos >= text.size() || text[pos] != '"')
            fail("field \"" + key + "\" must be a string" +
                 (allowArrays ? " or an array of strings" : ""));
        values.push_back(parseString());
        return values;
    }

    const std::string &text;
    const std::string &source;
    const bool allowArrays;
    std::size_t pos = 0;
};

} // namespace

JsonFields
parseFlatJson(const std::string &text, const std::string &source,
              bool allowArrays)
{
    return FlatJsonParser(text, source, allowArrays).parse();
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
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
    return out;
}

} // namespace vpr
