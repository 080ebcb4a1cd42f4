// Memcached text protocol subset (get/gets/set/cas/delete).
//
// The mini-kv speaks real bytes for two reasons. First, the Fig. 13-14
// micro-benchmarks measure items-per-second versus transaction size; the
// per-transaction CPU cost they exercise is dominated by exactly this
// parse/format work, so it has to be genuine. Second, the proof-of-concept
// client (Section IV) is meant to be portable to a real memcached fleet —
// the framing here is a faithful subset of memcached's text protocol, with
// one extension: a trailing "pin" token on `set` marks a distinguished copy
// (stock memcached would simply ignore RnB's pinning and evict normally).
//
// Grammar (subset):
//   get <key>+[ @trace=T]\r\n                      -> VALUE.../END
//   gets <key>+[ @trace=T]\r\n                      (VALUEs carry versions)
//   set <key> <flags> <exptime> <bytes>[ pin][ @trace=T]\r\n<data>\r\n
//   cas <key> <flags> <exptime> <bytes> <version>[ @trace=T]\r\n<data>\r\n
//   delete <key>[ @trace=T]\r\n
//   stats[ @trace=T]\r\n                           -> Prometheus text
//                                                     exposition, END-framed
//
// `stats` is the second extension: instead of memcached's STAT lines it
// returns the server's metrics in Prometheus text format (0.0.4), followed
// by "END\r\n" so existing response framing can delimit it.
//
// The third extension is the optional trace-context tag: when present it
// is always the FINAL token of the command line, spelled
//   @trace=<trace_id>:<parent_span_id>:<flags>
// with unpadded lowercase-hex ids and flags bit 0 = sampled. Untagged
// frames encode and parse byte-identically to the pre-tag grammar, so
// tag-unaware peers interoperate with untagged traffic unchanged. The
// `@trace=` prefix is reserved: it cannot appear as a key, and a
// malformed tag is a parse error rather than silently becoming one.
//
// The fourth extension set serves elastic membership (src/elastic):
//
//   * An optional `@epoch=<n>` token (decimal, n >= 1) carrying the ring
//     epoch the client planned against. It sits immediately before the
//     trace tag when both are present (`... @epoch=5 @trace=...`), obeys
//     the same rules — reserved prefix, malformed tag = parse error,
//     epoch-free frames byte-identical to the old grammar — and a server
//     configured for a different epoch answers the simple line
//     `WRONG_EPOCH <server_epoch>` instead of executing the command.
//   * `scan <cursor> <max>\r\n` — page through a server's entries for
//     replica migration. The response reuses VALUE/END framing: the first
//     VALUE carries the reserved key `@cursor` whose data is the next
//     cursor in decimal ("0" = exhausted), and each entry VALUE's <flags>
//     field carries bit 0 = pinned (distinguished copy), so migration
//     preserves the two service classes.
//   * `epoch [<n>]\r\n` — membership admin: with <n> installs the server's
//     epoch (-> OK), without queries it (-> `EPOCH <n>`). The epoch verb
//     itself is never rejected with WRONG_EPOCH.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace rnb::kv {

/// Trace context carried by the optional trailing `@trace=` token of a
/// request's command line. A zero trace id means "no tag": encoding such
/// a tag appends nothing, keeping untagged frames byte-identical to the
/// pre-tag wire format.
struct TraceTag {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  // the client span awaiting this request
  bool sampled = false;

  bool present() const noexcept { return trace_id != 0; }

  friend bool operator==(const TraceTag&, const TraceTag&) = default;
};

struct GetCommand {
  std::vector<std::string> keys;
  bool with_versions = false;  // true for `gets`
  TraceTag trace;
  std::uint64_t epoch = 0;  // 0 = no @epoch tag

  friend bool operator==(const GetCommand&, const GetCommand&) = default;
};

struct SetCommand {
  std::string key;
  std::string data;
  std::uint32_t flags = 0;
  bool pin = false;
  TraceTag trace;
  std::uint64_t epoch = 0;

  friend bool operator==(const SetCommand&, const SetCommand&) = default;
};

struct CasCommand {
  std::string key;
  std::string data;
  std::uint32_t flags = 0;
  std::uint64_t version = 0;
  TraceTag trace;
  std::uint64_t epoch = 0;

  friend bool operator==(const CasCommand&, const CasCommand&) = default;
};

struct DeleteCommand {
  std::string key;
  TraceTag trace;
  std::uint64_t epoch = 0;

  friend bool operator==(const DeleteCommand&, const DeleteCommand&) = default;
};

struct StatsCommand {
  TraceTag trace;
  std::uint64_t epoch = 0;

  friend bool operator==(const StatsCommand&, const StatsCommand&) = default;
};

/// Migration page request: `scan <cursor> <max>`. Single-line framed (no
/// data block), so the incremental FrameSplitter needs no scan-specific
/// rule. Cursor 0 starts a scan; servers hand the next cursor back in the
/// response's reserved `@cursor` value.
struct ScanCommand {
  std::uint64_t cursor = 0;
  std::uint32_t max_keys = 0;
  TraceTag trace;
  std::uint64_t epoch = 0;

  friend bool operator==(const ScanCommand&, const ScanCommand&) = default;
};

/// Membership admin verb: `epoch <n>` installs the server's ring epoch
/// (set_epoch > 0), bare `epoch` queries it (set_epoch == 0).
struct EpochCommand {
  std::uint64_t set_epoch = 0;  // 0 = query
  TraceTag trace;
  std::uint64_t epoch = 0;

  friend bool operator==(const EpochCommand&, const EpochCommand&) = default;
};

using Command =
    std::variant<GetCommand, SetCommand, CasCommand, DeleteCommand,
                 StatsCommand, ScanCommand, EpochCommand>;

/// Parse one complete request frame (command line + optional data block).
/// Returns nullopt and fills `error` on malformed input.
std::optional<Command> parse_command(std::string_view frame,
                                     std::string* error);

/// Encoders for client use. All append to `out` to allow buffer reuse.
/// A default-constructed (absent) TraceTag appends no tag token, so the
/// output is byte-identical to the tagless encoders of old clients.
///
/// encode_get formats key views; the owning-string and braced-list forms
/// share its one formatter and exist so callers never copy keys to call it.
void encode_get(std::span<const std::string_view> keys, bool with_versions,
                std::string& out, const TraceTag& trace = {});
void encode_get(const std::vector<std::string>& keys, bool with_versions,
                std::string& out, const TraceTag& trace = {});
void encode_get(std::initializer_list<std::string_view> keys,
                bool with_versions, std::string& out,
                const TraceTag& trace = {});
void encode_set(std::string_view key, std::string_view data, bool pin,
                std::string& out, const TraceTag& trace = {});
void encode_cas(std::string_view key, std::string_view data,
                std::uint64_t version, std::string& out,
                const TraceTag& trace = {});
void encode_delete(std::string_view key, std::string& out,
                   const TraceTag& trace = {});
void encode_stats(std::string& out, const TraceTag& trace = {});
void encode_scan(std::uint64_t cursor, std::uint32_t max_keys,
                 std::string& out, const TraceTag& trace = {});
/// `set_epoch` > 0 encodes the install form, 0 the query form.
void encode_epoch(std::uint64_t set_epoch, std::string& out,
                  const TraceTag& trace = {});

/// Retrofit a trace tag onto an already-encoded request frame by inserting
/// the token before the command line's CRLF. No-op for an absent tag or a
/// frame with no CRLF. Lets clients build frames once and tag per-attempt.
void append_trace_tag(std::string& frame, const TraceTag& trace);

/// Retrofit an `@epoch=` tag the same way. Insert the epoch tag BEFORE the
/// trace tag (epoch at plan time, trace per attempt) so the wire order is
/// `... @epoch=N @trace=T`. No-op for epoch 0.
void append_epoch_tag(std::string& frame, std::uint64_t epoch);

/// The trace tag of a parsed command, whichever verb it is.
const TraceTag& command_trace(const Command& cmd);

/// The `@epoch=` tag of a parsed command (0 = untagged).
std::uint64_t command_epoch(const Command& cmd);

/// VALUE-line <flags> bit 0: the entry is a pinned distinguished copy.
/// Only scan responses set it; get/gets keep flags 0 as always.
inline constexpr std::uint32_t kValueFlagPinned = 1;

/// Reserved key of the leading VALUE in a scan response; its data is the
/// next cursor in decimal ("0" = scan exhausted).
inline constexpr std::string_view kScanCursorKey = "@cursor";

/// One returned value in a get/gets response.
struct Value {
  std::string key;
  std::string data;
  std::uint64_t version = 0;  // only meaningful for `gets`
  std::uint32_t flags = 0;    // pinned bit in scan responses
};

/// One returned value as views: into the response frame it was parsed
/// from, or into the server's read arena while a response is formatted.
/// Valid only while those bytes are.
struct ValueView {
  std::string_view key;
  std::string_view data;
  std::uint64_t version = 0;
  std::uint32_t flags = 0;
};

/// Response encoders for server use. encode_value formats one VALUE block
/// (`VALUE <key> <flags> <bytes>[ <version>]` + data); encode_values and
/// the server's get path both go through it, so their bytes cannot drift.
/// A VALUE response ends with encode_simple("END").
void encode_value(const ValueView& value, bool with_versions,
                  std::string& out);
void encode_values(const std::vector<Value>& values, bool with_versions,
                   std::string& out);
void encode_simple(std::string_view token, std::string& out);  // STORED etc.

/// Parse a get/gets response ("VALUE ... END") into `out` (cleared first)
/// without copying keys or data. Returns false on parse failure, leaving
/// `out` unspecified. This is the one VALUE-frame grammar; parse_values and
/// parse_scan_page are built on it.
bool parse_value_views(std::string_view frame, bool with_versions,
                       std::vector<ValueView>& out);

/// parse_value_views with owned copies. Returns nullopt on parse failure.
std::optional<std::vector<Value>> parse_values(std::string_view frame,
                                               bool with_versions);

/// Parse a one-token response line ("STORED", "NOT_FOUND", ...).
std::string_view parse_simple(std::string_view frame);

/// Server-side WRONG_EPOCH rejection line, carrying the server's epoch as
/// the moved hint a stale client re-plans against.
void encode_wrong_epoch(std::uint64_t server_epoch, std::string& out);

/// The server epoch of a "WRONG_EPOCH <n>" line; nullopt for anything else.
std::optional<std::uint64_t> parse_wrong_epoch(std::string_view frame);

/// A parsed scan response: the next-cursor header plus the page's entries
/// (flags carry the pinned bit).
struct ScanPage {
  std::uint64_t next_cursor = 0;  // 0 = scan exhausted
  std::vector<Value> entries;
};

/// Encode a scan response: the reserved @cursor VALUE followed by the
/// entries, END-framed like any get response.
void encode_scan_page(const ScanPage& page, std::string& out);

/// Parse a scan response. nullopt when the frame is not a VALUE block or
/// lacks the leading @cursor header.
std::optional<ScanPage> parse_scan_page(std::string_view frame);

}  // namespace rnb::kv
