#include "kv/protocol.hpp"

#include <charconv>

namespace rnb::kv {
namespace {

constexpr std::string_view kCrlf = "\r\n";

/// Split the next space-delimited token off `rest`.
std::string_view next_token(std::string_view& rest) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const std::size_t end = rest.find(' ');
  std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end);
  return token;
}

template <typename Int>
bool parse_int(std::string_view token, Int& out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

constexpr std::string_view kTracePrefix = "@trace=";
constexpr std::string_view kEpochPrefix = "@epoch=";
constexpr std::string_view kWrongEpochToken = "WRONG_EPOCH";

/// `v` in decimal, as std::to_string spells it, without a temporary.
void append_decimal(std::uint64_t v, std::string& out) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

void append_hex(std::uint64_t id, std::string& out) {
  char buf[16];
  std::size_t n = 0;
  do {
    buf[n++] = "0123456789abcdef"[id & 0xf];
    id >>= 4;
  } while (id != 0);
  while (n != 0) out += buf[--n];
}

bool parse_hex(std::string_view token, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(
      token.data(), token.data() + token.size(), out, 16);
  return ec == std::errc{} && ptr == token.data() + token.size() &&
         !token.empty();
}

void format_trace_tag(const TraceTag& trace, std::string& out) {
  out += kTracePrefix;
  append_hex(trace.trace_id, out);
  out += ':';
  append_hex(trace.span_id, out);
  out += ':';
  append_hex(trace.sampled ? 1 : 0, out);
}

/// If the final token of `line` is a trace tag, parse it into `trace` and
/// strip it (plus its separating spaces) from `line`. Returns false only
/// for a malformed tag — the prefix is reserved, so "@trace=garbage" is a
/// parse error rather than a surprising key.
bool peel_trace_tag(std::string_view& line, TraceTag& trace,
                    std::string* error) {
  const std::size_t space = line.find_last_of(' ');
  std::string_view token =
      space == std::string_view::npos ? line : line.substr(space + 1);
  if (token.substr(0, kTracePrefix.size()) != kTracePrefix) return true;
  token.remove_prefix(kTracePrefix.size());
  const std::size_t c1 = token.find(':');
  const std::size_t c2 =
      c1 == std::string_view::npos ? c1 : token.find(':', c1 + 1);
  std::uint64_t trace_id = 0, span_id = 0, flags = 0;
  if (c2 == std::string_view::npos ||
      token.find(':', c2 + 1) != std::string_view::npos ||
      !parse_hex(token.substr(0, c1), trace_id) ||
      !parse_hex(token.substr(c1 + 1, c2 - c1 - 1), span_id) ||
      !parse_hex(token.substr(c2 + 1), flags) || trace_id == 0)
    return fail(error, "bad trace tag");
  trace.trace_id = trace_id;
  trace.span_id = span_id;
  trace.sampled = (flags & 1) != 0;
  line = space == std::string_view::npos ? std::string_view{}
                                         : line.substr(0, space);
  return true;
}

/// If the final token of `line` is an epoch tag, parse it and strip it.
/// Same contract as peel_trace_tag: the prefix is reserved, so a malformed
/// or zero epoch is a parse error, and the caller peels the trace tag
/// first (wire order is `... @epoch=N @trace=T`).
bool peel_epoch_tag(std::string_view& line, std::uint64_t& epoch,
                    std::string* error) {
  const std::size_t space = line.find_last_of(' ');
  std::string_view token =
      space == std::string_view::npos ? line : line.substr(space + 1);
  if (token.substr(0, kEpochPrefix.size()) != kEpochPrefix) return true;
  token.remove_prefix(kEpochPrefix.size());
  std::uint64_t value = 0;
  if (token.empty() || !parse_int(token, value) || value == 0)
    return fail(error, "bad epoch tag");
  epoch = value;
  line = space == std::string_view::npos ? std::string_view{}
                                         : line.substr(0, space);
  return true;
}

/// Parse "<key> <flags> <exptime> <bytes>" and the following data block.
/// Returns false on malformed input. `tail` must start at the byte after
/// the command-line CRLF.
bool parse_storage_head(std::string_view& line, std::string_view tail,
                        std::string& key, std::uint32_t& flags,
                        std::string& data, std::string* error) {
  key = std::string(next_token(line));
  if (key.empty()) return fail(error, "missing key");
  std::uint32_t exptime = 0;
  std::size_t bytes = 0;
  if (!parse_int(next_token(line), flags)) return fail(error, "bad flags");
  if (!parse_int(next_token(line), exptime)) return fail(error, "bad exptime");
  if (!parse_int(next_token(line), bytes)) return fail(error, "bad bytes");
  if (tail.size() < bytes + kCrlf.size()) return fail(error, "short data");
  if (tail.substr(bytes, kCrlf.size()) != kCrlf)
    return fail(error, "data not CRLF-terminated");
  data.assign(tail.substr(0, bytes));
  return true;
}

}  // namespace

std::optional<Command> parse_command(std::string_view frame,
                                     std::string* error) {
  const std::size_t eol = frame.find(kCrlf);
  if (eol == std::string_view::npos) {
    fail(error, "missing CRLF");
    return std::nullopt;
  }
  std::string_view line = frame.substr(0, eol);
  const std::string_view tail = frame.substr(eol + kCrlf.size());
  // The trace tag, when present, is the final command-line token no matter
  // the verb; peeling it up front keeps every per-verb parser tag-blind.
  // The epoch tag sits immediately before it, so it is peeled second.
  TraceTag trace;
  std::uint64_t epoch = 0;
  if (!peel_trace_tag(line, trace, error)) return std::nullopt;
  if (!peel_epoch_tag(line, epoch, error)) return std::nullopt;
  if (epoch != 0) {
    // A trace tag surfacing only after the epoch peel means the tags were
    // sent in the wrong order; the prefix is reserved, so reject the frame
    // rather than read the tag as a key.
    TraceTag misordered;
    if (!peel_trace_tag(line, misordered, error)) return std::nullopt;
    if (misordered.present()) {
      fail(error, "trace tag must be the final token");
      return std::nullopt;
    }
  }
  const std::string_view verb = next_token(line);

  if (verb == "get" || verb == "gets") {
    GetCommand cmd;
    cmd.trace = trace;
    cmd.epoch = epoch;
    cmd.with_versions = verb == "gets";
    // Count first, so a get frame makes its one allocation here.
    std::size_t count = 0;
    for (std::string_view rest = line; !next_token(rest).empty();) ++count;
    cmd.keys.reserve(count);
    for (std::string_view key = next_token(line); !key.empty();
         key = next_token(line))
      cmd.keys.emplace_back(key);
    if (cmd.keys.empty()) {
      fail(error, "get with no keys");
      return std::nullopt;
    }
    return cmd;
  }
  if (verb == "set") {
    SetCommand cmd;
    cmd.trace = trace;
    cmd.epoch = epoch;
    // The optional "pin" extension rides after <bytes>; peel it off the
    // line before delegating (parse_storage_head consumes exactly 4 fields).
    if (!parse_storage_head(line, tail, cmd.key, cmd.flags, cmd.data, error))
      return std::nullopt;
    const std::string_view extra = next_token(line);
    if (extra == "pin")
      cmd.pin = true;
    else if (!extra.empty()) {
      fail(error, "unexpected token after set");
      return std::nullopt;
    }
    return cmd;
  }
  if (verb == "cas") {
    // cas layout: <key> <flags> <exptime> <bytes> <version>; reuse the
    // storage-head parser by reading the version token afterwards.
    CasCommand cmd;
    cmd.trace = trace;
    cmd.epoch = epoch;
    // parse_storage_head validates data length against <bytes>, which for
    // cas sits before the version token; split manually.
    std::string_view line_copy = line;
    const std::string_view key = next_token(line_copy);
    std::uint32_t flags = 0, exptime = 0;
    std::size_t bytes = 0;
    std::uint64_t version = 0;
    if (key.empty() || !parse_int(next_token(line_copy), flags) ||
        !parse_int(next_token(line_copy), exptime) ||
        !parse_int(next_token(line_copy), bytes) ||
        !parse_int(next_token(line_copy), version)) {
      fail(error, "bad cas header");
      return std::nullopt;
    }
    if (tail.size() < bytes + kCrlf.size() ||
        tail.substr(bytes, kCrlf.size()) != kCrlf) {
      fail(error, "bad cas data");
      return std::nullopt;
    }
    cmd.key = std::string(key);
    cmd.flags = flags;
    cmd.version = version;
    cmd.data.assign(tail.substr(0, bytes));
    return cmd;
  }
  if (verb == "delete") {
    DeleteCommand cmd;
    cmd.trace = trace;
    cmd.epoch = epoch;
    cmd.key = std::string(next_token(line));
    if (cmd.key.empty()) {
      fail(error, "delete with no key");
      return std::nullopt;
    }
    return cmd;
  }
  if (verb == "stats") {
    if (!next_token(line).empty()) {
      fail(error, "stats takes no arguments");
      return std::nullopt;
    }
    StatsCommand cmd;
    cmd.trace = trace;
    cmd.epoch = epoch;
    return cmd;
  }
  if (verb == "scan") {
    ScanCommand cmd;
    cmd.trace = trace;
    cmd.epoch = epoch;
    if (!parse_int(next_token(line), cmd.cursor) ||
        !parse_int(next_token(line), cmd.max_keys) || cmd.max_keys == 0 ||
        !next_token(line).empty()) {
      fail(error, "bad scan arguments");
      return std::nullopt;
    }
    return cmd;
  }
  if (verb == "epoch") {
    EpochCommand cmd;
    cmd.trace = trace;
    cmd.epoch = epoch;
    const std::string_view arg = next_token(line);
    if (!arg.empty() &&
        (!parse_int(arg, cmd.set_epoch) || cmd.set_epoch == 0)) {
      fail(error, "bad epoch argument");
      return std::nullopt;
    }
    if (!next_token(line).empty()) {
      fail(error, "unexpected token after epoch");
      return std::nullopt;
    }
    return cmd;
  }
  fail(error, "unknown verb");
  return std::nullopt;
}

namespace {

void append_tag_if_present(const TraceTag& trace, std::string& out) {
  if (!trace.present()) return;
  out += ' ';
  format_trace_tag(trace, out);
}

template <typename Keys>
void format_get(const Keys& keys, bool with_versions, std::string& out,
                const TraceTag& trace) {
  out += with_versions ? "gets" : "get";
  for (const std::string_view k : keys) {
    out += ' ';
    out += k;
  }
  append_tag_if_present(trace, out);
  out += kCrlf;
}

}  // namespace

void encode_get(std::span<const std::string_view> keys, bool with_versions,
                std::string& out, const TraceTag& trace) {
  format_get(keys, with_versions, out, trace);
}

void encode_get(const std::vector<std::string>& keys, bool with_versions,
                std::string& out, const TraceTag& trace) {
  format_get(keys, with_versions, out, trace);
}

void encode_get(std::initializer_list<std::string_view> keys,
                bool with_versions, std::string& out, const TraceTag& trace) {
  format_get(keys, with_versions, out, trace);
}

void encode_set(std::string_view key, std::string_view data, bool pin,
                std::string& out, const TraceTag& trace) {
  out += "set ";
  out += key;
  out += " 0 0 ";
  out += std::to_string(data.size());
  if (pin) out += " pin";
  append_tag_if_present(trace, out);
  out += kCrlf;
  out += data;
  out += kCrlf;
}

void encode_cas(std::string_view key, std::string_view data,
                std::uint64_t version, std::string& out,
                const TraceTag& trace) {
  out += "cas ";
  out += key;
  out += " 0 0 ";
  out += std::to_string(data.size());
  out += ' ';
  out += std::to_string(version);
  append_tag_if_present(trace, out);
  out += kCrlf;
  out += data;
  out += kCrlf;
}

void encode_delete(std::string_view key, std::string& out,
                   const TraceTag& trace) {
  out += "delete ";
  out += key;
  append_tag_if_present(trace, out);
  out += kCrlf;
}

void encode_stats(std::string& out, const TraceTag& trace) {
  out += "stats";
  append_tag_if_present(trace, out);
  out += kCrlf;
}

void encode_scan(std::uint64_t cursor, std::uint32_t max_keys,
                 std::string& out, const TraceTag& trace) {
  out += "scan ";
  out += std::to_string(cursor);
  out += ' ';
  out += std::to_string(max_keys);
  append_tag_if_present(trace, out);
  out += kCrlf;
}

void encode_epoch(std::uint64_t set_epoch, std::string& out,
                  const TraceTag& trace) {
  out += "epoch";
  if (set_epoch != 0) {
    out += ' ';
    out += std::to_string(set_epoch);
  }
  append_tag_if_present(trace, out);
  out += kCrlf;
}

void append_trace_tag(std::string& frame, const TraceTag& trace) {
  if (!trace.present()) return;
  const std::size_t eol = frame.find(kCrlf);
  if (eol == std::string::npos) return;
  std::string token(1, ' ');
  format_trace_tag(trace, token);
  frame.insert(eol, token);
}

void append_epoch_tag(std::string& frame, std::uint64_t epoch) {
  if (epoch == 0) return;
  const std::size_t eol = frame.find(kCrlf);
  if (eol == std::string::npos) return;
  std::string token(1, ' ');
  token += kEpochPrefix;
  token += std::to_string(epoch);
  // Inserting at the CRLF means a later append_trace_tag (same insertion
  // point) lands after us, producing the wire order `@epoch=N @trace=T`.
  frame.insert(eol, token);
}

const TraceTag& command_trace(const Command& cmd) {
  return std::visit([](const auto& c) -> const TraceTag& { return c.trace; },
                    cmd);
}

std::uint64_t command_epoch(const Command& cmd) {
  return std::visit([](const auto& c) { return c.epoch; }, cmd);
}

void encode_value(const ValueView& value, bool with_versions,
                  std::string& out) {
  out += "VALUE ";
  out += value.key;
  out += ' ';
  append_decimal(value.flags, out);
  out += ' ';
  append_decimal(value.data.size(), out);
  if (with_versions) {
    out += ' ';
    append_decimal(value.version, out);
  }
  out += kCrlf;
  out += value.data;
  out += kCrlf;
}

void encode_values(const std::vector<Value>& values, bool with_versions,
                   std::string& out) {
  for (const Value& v : values)
    encode_value(ValueView{v.key, v.data, v.version, v.flags}, with_versions,
                 out);
  encode_simple("END", out);
}

void encode_simple(std::string_view token, std::string& out) {
  out += token;
  out += kCrlf;
}

bool parse_value_views(std::string_view frame, bool with_versions,
                       std::vector<ValueView>& out) {
  out.clear();
  while (true) {
    const std::size_t eol = frame.find(kCrlf);
    if (eol == std::string_view::npos) return false;
    std::string_view line = frame.substr(0, eol);
    frame.remove_prefix(eol + kCrlf.size());
    if (line == "END") return true;
    const std::string_view tag = next_token(line);
    if (tag != "VALUE") return false;
    ValueView v;
    v.key = next_token(line);
    std::size_t bytes = 0;
    if (v.key.empty() || !parse_int(next_token(line), v.flags) ||
        !parse_int(next_token(line), bytes))
      return false;
    if (with_versions && !parse_int(next_token(line), v.version))
      return false;
    if (frame.size() < bytes + kCrlf.size() ||
        frame.substr(bytes, kCrlf.size()) != kCrlf)
      return false;
    v.data = frame.substr(0, bytes);
    frame.remove_prefix(bytes + kCrlf.size());
    out.push_back(v);
  }
}

std::optional<std::vector<Value>> parse_values(std::string_view frame,
                                               bool with_versions) {
  std::vector<ValueView> views;
  if (!parse_value_views(frame, with_versions, views)) return std::nullopt;
  std::vector<Value> values;
  values.reserve(views.size());
  for (const ValueView& v : views)
    values.push_back(
        Value{std::string(v.key), std::string(v.data), v.version, v.flags});
  return values;
}

std::string_view parse_simple(std::string_view frame) {
  const std::size_t eol = frame.find(kCrlf);
  return eol == std::string_view::npos ? frame : frame.substr(0, eol);
}

void encode_wrong_epoch(std::uint64_t server_epoch, std::string& out) {
  out += kWrongEpochToken;
  out += ' ';
  out += std::to_string(server_epoch);
  out += kCrlf;
}

std::optional<std::uint64_t> parse_wrong_epoch(std::string_view frame) {
  std::string_view line = parse_simple(frame);
  if (next_token(line) != kWrongEpochToken) return std::nullopt;
  std::uint64_t epoch = 0;
  if (!parse_int(next_token(line), epoch) || !next_token(line).empty())
    return std::nullopt;
  return epoch;
}

void encode_scan_page(const ScanPage& page, std::string& out) {
  std::vector<Value> values;
  values.reserve(page.entries.size() + 1);
  Value cursor;
  cursor.key = std::string(kScanCursorKey);
  cursor.data = std::to_string(page.next_cursor);
  values.push_back(std::move(cursor));
  values.insert(values.end(), page.entries.begin(), page.entries.end());
  encode_values(values, /*with_versions=*/false, out);
}

std::optional<ScanPage> parse_scan_page(std::string_view frame) {
  auto values = parse_values(frame, /*with_versions=*/false);
  if (!values || values->empty() || values->front().key != kScanCursorKey)
    return std::nullopt;
  ScanPage page;
  if (!parse_int(values->front().data, page.next_cursor)) return std::nullopt;
  page.entries.assign(std::make_move_iterator(values->begin() + 1),
                      std::make_move_iterator(values->end()));
  return page;
}

}  // namespace rnb::kv
