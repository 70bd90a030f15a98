#include "server/wire.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/graph_io.h"

namespace gdim {

namespace {

/// Strict non-negative integer token: digits only, no signs, no whitespace.
Result<int> ParseNonNegInt(const std::string& token,
                           const std::string& what) {
  const bool all_digits =
      !token.empty() &&
      std::all_of(token.begin(), token.end(),
                  [](unsigned char c) { return std::isdigit(c); });
  if (!all_digits) {
    return Status::InvalidArgument("bad " + what + " '" + token + "'");
  }
  try {
    return std::stoi(token);
  } catch (const std::out_of_range&) {
    return Status::InvalidArgument(what + " '" + token + "' out of range");
  }
}

StatusCode StatusCodeFromName(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kOutOfRange,
      StatusCode::kIoError,      StatusCode::kParseError,
      StatusCode::kResourceExhausted, StatusCode::kInternal,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeToString(code)) return code;
  }
  // An unknown name still transports the error; kInternal is the catch-all.
  return StatusCode::kInternal;
}

}  // namespace

std::string EncodeGraphInline(const Graph& graph) {
  std::ostringstream text;
  WriteGraphStream({graph}, text);
  std::string spec = text.str();
  while (!spec.empty() && spec.back() == '\n') spec.pop_back();
  std::replace(spec.begin(), spec.end(), '\n', ';');
  return spec;
}

Result<Graph> DecodeGraphInline(const std::string& spec) {
  std::string text = spec;
  std::replace(text.begin(), text.end(), ';', '\n');
  text.push_back('\n');
  std::istringstream stream(text);
  Result<GraphDatabase> db = ReadGraphStream(stream);
  if (!db.ok()) return db.status();
  if (db->size() != 1) {
    return Status::InvalidArgument("expected exactly one graph, got " +
                                   std::to_string(db->size()));
  }
  return std::move((*db)[0]);
}

Result<WireRequest> ParseWireRequest(const std::string& line) {
  const size_t space = line.find(' ');
  const std::string verb = line.substr(0, space);
  const std::string rest =
      space == std::string::npos ? "" : line.substr(space + 1);
  WireRequest request;
  if (verb == "QUERY") {
    const size_t k_end = rest.find(' ');
    if (k_end == std::string::npos) {
      return Status::InvalidArgument(
          "QUERY wants '<k> [KEY=VALUE ...] <graph>'");
    }
    Result<int> k = ParseNonNegInt(rest.substr(0, k_end), "k");
    if (!k.ok()) return k.status();
    request.options.k = *k;
    // Option tokens sit between k and the graph; a gSpan token never
    // contains '=', so the first '='-free token starts the graph.
    size_t pos = k_end + 1;
    for (;;) {
      const size_t token_end = rest.find(' ', pos);
      const std::string token = rest.substr(
          pos, token_end == std::string::npos ? std::string::npos
                                              : token_end - pos);
      const size_t eq = token.find('=');
      if (eq == std::string::npos) break;  // the graph starts here
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "MODE") {
        // "auto" is kept as an alias of "full" for existing clients: both
        // parse to the same options, so they share one cache key and one
        // coalescing span.
        if (value == "auto" || value == "full") {
          request.options.scan_mode = ScanMode::kFull;
        } else if (value == "approx") {
          request.options.scan_mode = ScanMode::kApprox;
        } else {
          return Status::InvalidArgument("bad QUERY MODE '" + value +
                                         "' (want auto|full|approx)");
        }
      } else if (key == "NPROBE") {
        if (value == "all") {
          request.options.nprobe = kNprobeAll;
        } else {
          Result<int> nprobe = ParseNonNegInt(value, "QUERY NPROBE");
          if (!nprobe.ok()) return nprobe.status();
          if (*nprobe < 1) {
            return Status::InvalidArgument(
                "QUERY NPROBE must be >= 1 (or 'all')");
          }
          request.options.nprobe = *nprobe;
        }
      } else if (key == "TRACE") {
        if (value == "1") {
          request.trace = true;
        } else if (value == "0") {
          request.trace = false;
        } else {
          return Status::InvalidArgument("bad QUERY TRACE '" + value +
                                         "' (want 0|1)");
        }
      } else {
        return Status::InvalidArgument("unknown QUERY option '" + key + "'");
      }
      if (token_end == std::string::npos) {
        return Status::InvalidArgument("QUERY wants a graph after its "
                                       "options");
      }
      pos = token_end + 1;
    }
    // NPROBE tunes the approximate probe; on an exact mode it would be
    // silently ignored — reject so a client cannot believe it narrowed an
    // exact scan.
    if (request.options.nprobe != 0 &&
        request.options.scan_mode != ScanMode::kApprox) {
      return Status::InvalidArgument("QUERY NPROBE requires MODE=approx");
    }
    Result<Graph> graph = DecodeGraphInline(rest.substr(pos));
    if (!graph.ok()) return graph.status();
    request.verb = WireVerb::kQuery;
    request.graph = std::move(graph).value();
    return request;
  }
  if (verb == "INSERT") {
    if (rest.empty()) {
      return Status::InvalidArgument("INSERT wants '<graph>'");
    }
    Result<Graph> graph = DecodeGraphInline(rest);
    if (!graph.ok()) return graph.status();
    request.verb = WireVerb::kInsert;
    request.graph = std::move(graph).value();
    return request;
  }
  if (verb == "REMOVE") {
    Result<int> id = ParseNonNegInt(rest, "graph id");
    if (!id.ok()) return id.status();
    request.verb = WireVerb::kRemove;
    request.id = *id;
    return request;
  }
  if (verb == "COMPACT") {
    if (!rest.empty()) {
      return Status::InvalidArgument("COMPACT takes no arguments");
    }
    request.verb = WireVerb::kCompact;
    return request;
  }
  if (verb == "REINDEX") {
    if (!rest.empty()) {
      Result<int> p = ParseNonNegInt(rest, "dimension count");
      if (!p.ok()) return p.status();
      if (*p < 1) {
        return Status::InvalidArgument(
            "REINDEX dimension count must be >= 1 (omit it to keep the "
            "current one)");
      }
      request.p = *p;
    }
    request.verb = WireVerb::kReindex;
    return request;
  }
  if (verb == "SNAPSHOT") {
    if (rest.empty()) {
      return Status::InvalidArgument("SNAPSHOT wants '<path>'");
    }
    request.verb = WireVerb::kSnapshot;
    request.path = rest;
    return request;
  }
  if (verb == "STATS" || verb == "METRICS" || verb == "PING" ||
      verb == "QUIT") {
    if (!rest.empty()) {
      return Status::InvalidArgument(verb + " takes no arguments");
    }
    request.verb = verb == "STATS"     ? WireVerb::kStats
                   : verb == "METRICS" ? WireVerb::kMetrics
                   : verb == "PING"    ? WireVerb::kPing
                                       : WireVerb::kQuit;
    return request;
  }
  return Status::InvalidArgument("unknown verb '" + verb + "'");
}

std::string FormatRankingResponse(const Ranking& ranking) {
  std::string out = "OK " + std::to_string(ranking.size());
  char pair[64];
  for (const RankedResult& r : ranking) {
    std::snprintf(pair, sizeof(pair), " %d:%.6f", r.id, r.score);
    out += pair;
  }
  return out;
}

std::string FormatTraceLine(const QueryTrace& trace) {
  char out[192];
  std::snprintf(out, sizeof(out),
                "TRACE queue=%lld map=%lld cache=%lld scan=%lld total=%lld "
                "cache_hit=%d",
                std::llround(trace.queue_usec), std::llround(trace.map_usec),
                std::llround(trace.cache_usec), std::llround(trace.scan_usec),
                std::llround(trace.total_usec), trace.cache_hit ? 1 : 0);
  return out;
}

std::string FormatErrorResponse(const Status& status) {
  std::string message = status.message();
  std::replace(message.begin(), message.end(), '\n', ' ');
  std::replace(message.begin(), message.end(), '\r', ' ');
  return std::string("ERR ") + StatusCodeToString(status.code()) + " " +
         message;
}

long long StatsField(const std::string& stats_line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t pos = stats_line.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(stats_line.c_str() + pos + needle.size(), nullptr, 10);
}

Result<Ranking> ParseRankingResponse(const std::string& line) {
  if (line.rfind("ERR ", 0) == 0) {
    const std::string rest = line.substr(4);
    const size_t space = rest.find(' ');
    const std::string name = rest.substr(0, space);
    const std::string message =
        space == std::string::npos ? "" : rest.substr(space + 1);
    return Status(StatusCodeFromName(name), message);
  }
  if (line.rfind("OK ", 0) != 0) {
    return Status::ParseError("malformed response line '" + line + "'");
  }
  std::istringstream in(line.substr(3));
  size_t count = 0;
  if (!(in >> count)) {
    return Status::ParseError("malformed result count in '" + line + "'");
  }
  Ranking ranking;
  ranking.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string token;
    if (!(in >> token)) {
      return Status::ParseError("response promises " + std::to_string(count) +
                                " results, carries " + std::to_string(i));
    }
    const size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("malformed result '" + token + "'");
    }
    RankedResult r;
    try {
      r.id = std::stoi(token.substr(0, colon));
      r.score = std::stod(token.substr(colon + 1));
    } catch (const std::exception&) {
      return Status::ParseError("malformed result '" + token + "'");
    }
    ranking.push_back(r);
  }
  std::string extra;
  if (in >> extra) {
    return Status::ParseError("trailing garbage '" + extra + "'");
  }
  return ranking;
}

}  // namespace gdim
