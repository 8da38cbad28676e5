#include "support/trace.hpp"

#include <cctype>
#include <cstdio>

#include "support/diagnostics.hpp"

namespace polymage::obs {

//----------------------------------------------------------------------
// TraceRegistry
//----------------------------------------------------------------------

TraceRegistry::TraceRegistry()
    : epoch_(std::chrono::steady_clock::now())
{}

int
TraceRegistry::begin(const std::string &name)
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.id = int(spans_.size());
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now - epoch_)
                    .count();
    auto &stack = open_[std::this_thread::get_id()];
    if (!stack.empty()) {
        s.parent = stack.back();
        s.depth = spans_[std::size_t(s.parent)].depth + 1;
    }
    stack.push_back(s.id);
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
TraceRegistry::end(int id)
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    PM_ASSERT(id >= 0 && id < int(spans_.size()), "unknown span id");
    Span &s = spans_[std::size_t(id)];
    PM_ASSERT(s.durationNs < 0, "span ended twice");
    s.durationNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
            .count() -
        s.startNs;
    auto &stack = open_[std::this_thread::get_id()];
    PM_ASSERT(!stack.empty() && stack.back() == id,
              "span end out of order");
    stack.pop_back();
}

int
TraceRegistry::record(const std::string &name,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end,
                      std::vector<std::pair<std::string, std::int64_t>> args)
{
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.id = int(spans_.size());
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start - epoch_)
                    .count();
    s.durationNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    s.args = std::move(args);
    const auto &stack = open_[std::this_thread::get_id()];
    if (!stack.empty()) {
        s.parent = stack.back();
        s.depth = spans_[std::size_t(s.parent)].depth + 1;
    }
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<Span>
TraceRegistry::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

double
TraceRegistry::totalSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    double t = 0;
    for (const auto &s : spans_) {
        if (s.parent < 0)
            t += s.durationNs < 0 ? 0.0 : double(s.durationNs) * 1e-9;
    }
    return t;
}

void
TraceRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
    open_.clear();
    epoch_ = std::chrono::steady_clock::now();
}

std::string
TraceRegistry::toJson() const
{
    return spansToJson(spans());
}

//----------------------------------------------------------------------
// Current registry (thread-local)
//----------------------------------------------------------------------

namespace {
thread_local TraceRegistry *tls_current = nullptr;
} // namespace

TraceRegistry *
currentTrace()
{
    return tls_current;
}

ScopedCurrent::ScopedCurrent(TraceRegistry *reg) : prev_(tls_current)
{
    tls_current = reg;
}

ScopedCurrent::~ScopedCurrent()
{
    tls_current = prev_;
}

//----------------------------------------------------------------------
// JSON emission
//----------------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
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
    return out;
}

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (hasItem_.back())
        out_ += ',';
    hasItem_.back() = true;
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    PM_ASSERT(hasItem_.size() > 1, "unbalanced endObject");
    hasItem_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    PM_ASSERT(hasItem_.size() > 1, "unbalanced endArray");
    hasItem_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    out_ += '"' + jsonEscape(k) + "\":";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out_ += '"' + jsonEscape(v) + '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    separate();
    out_ += json;
    return *this;
}

std::string
spansToJson(const std::vector<Span> &spans)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("polymage-trace-v1");
    w.key("spans").beginArray();
    for (const auto &s : spans) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("id").value(s.id);
        w.key("parent").value(s.parent);
        w.key("depth").value(s.depth);
        w.key("start_ns").value(s.startNs);
        w.key("duration_ns").value(s.durationNs);
        if (!s.args.empty()) {
            w.key("args").beginObject();
            for (const auto &[k, v] : s.args)
                w.key(k).value(v);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

//----------------------------------------------------------------------
// JSON parsing (round-trip of the trace schema)
//----------------------------------------------------------------------

namespace {

/** Cursor over a JSON document; parses just what the schema needs. */
struct Parser
{
    const std::string &s;
    std::size_t i = 0;

    void
    ws()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    bool
    eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }

    void
    expect(char c)
    {
        if (!eat(c))
            internalError("trace JSON: expected '", c, "' at offset ",
                          i);
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (i < s.size() && s[i] != '"') {
            char c = s[i++];
            if (c == '\\' && i < s.size()) {
                char e = s[i++];
                switch (e) {
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    PM_ASSERT(i + 4 <= s.size(),
                              "trace JSON: bad \\u escape");
                    out += char(std::stoi(s.substr(i, 4), nullptr, 16));
                    i += 4;
                    break;
                  }
                  default: out += e;
                }
            } else {
                out += c;
            }
        }
        expect('"');
        return out;
    }

    std::int64_t
    integer()
    {
        ws();
        std::size_t end = i;
        if (end < s.size() && (s[end] == '-' || s[end] == '+'))
            ++end;
        while (end < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[end])))
            ++end;
        PM_ASSERT(end > i, "trace JSON: expected integer");
        const std::int64_t v = std::stoll(s.substr(i, end - i));
        i = end;
        return v;
    }
};

} // namespace

std::vector<Span>
spansFromJson(const std::string &json)
{
    Parser p{json};
    p.expect('{');
    std::vector<Span> out;
    bool first_key = true;
    while (!p.eat('}')) {
        if (!first_key)
            p.expect(',');
        first_key = false;
        const std::string k = p.string();
        p.expect(':');
        if (k == "schema") {
            const std::string v = p.string();
            PM_ASSERT(v == "polymage-trace-v1",
                      "trace JSON: unknown schema");
        } else if (k == "spans") {
            p.expect('[');
            bool first = true;
            while (!p.eat(']')) {
                if (!first)
                    p.expect(',');
                first = false;
                Span s;
                p.expect('{');
                bool firstf = true;
                while (!p.eat('}')) {
                    if (!firstf)
                        p.expect(',');
                    firstf = false;
                    const std::string f = p.string();
                    p.expect(':');
                    if (f == "name")
                        s.name = p.string();
                    else if (f == "id")
                        s.id = int(p.integer());
                    else if (f == "parent")
                        s.parent = int(p.integer());
                    else if (f == "depth")
                        s.depth = int(p.integer());
                    else if (f == "start_ns")
                        s.startNs = p.integer();
                    else if (f == "duration_ns")
                        s.durationNs = p.integer();
                    else if (f == "args") {
                        p.expect('{');
                        bool firsta = true;
                        while (!p.eat('}')) {
                            if (!firsta)
                                p.expect(',');
                            firsta = false;
                            std::string k = p.string();
                            p.expect(':');
                            s.args.emplace_back(std::move(k), p.integer());
                        }
                    } else
                        internalError("trace JSON: unknown field '", f,
                                      "'");
                }
                out.push_back(std::move(s));
            }
        } else {
            internalError("trace JSON: unknown key '", k, "'");
        }
    }
    return out;
}

} // namespace polymage::obs
