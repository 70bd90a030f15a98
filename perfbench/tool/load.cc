// `load`: the closed-loop wire client. Up to --conns connections each keep
// exactly one request outstanding (the protocol answers in order, one line
// per request), driven from one poll() loop so the client adds no thread
// contention of its own. Every answer is checked: exact QUERY answers
// against the brute-force reference, approximate ones for recall.
//
// `check`: after a churn run, compares wire answers with a ShardedEngine
// opened in-process from the server's final SNAPSHOT.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "graph/graph_io.h"
#include "server/sharded_engine.h"
#include "server/wire.h"
#include "tool/common.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// A phase that has not finished by then has stalled: its outstanding
// requests count as failed (a run must end within 180 s).
constexpr double kMaxSeconds = 120.0;
constexpr double kCpuSampleS = 0.05;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w = send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

// Reads one '\n'-terminated line (without the terminator) into *line,
// buffering any surplus in *buf. False on EOF or error.
bool ReadLine(int fd, std::string* buf, std::string* line) {
  for (;;) {
    const size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      *line = buf->substr(0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t r = recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) return false;
    buf->append(chunk, static_cast<size_t>(r));
  }
}

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string t;
  while (in >> t) out.push_back(t);
  return out;
}

int TokenId(const std::string& token) {
  return std::atoi(token.substr(0, token.find(':')).c_str());
}

// User + system CPU seconds the process has used so far, or -1.
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(close_paren + 1));
  std::string field;
  double ticks = 0.0;
  // Fields 14 and 15 of /proc/<pid>/stat: utime, stime.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

enum class Kind { kQuery, kInsert, kRemove, kCompact, kSnapshot, kReindex };

struct Conn {
  int fd = -1;
  int index = 0;
  std::string inbuf;
  bool busy = false;
  bool dead = false;
  Kind kind = Kind::kQuery;
  int query = 0;  // kQuery: index into the query set
  Clock::time_point sent;
  std::vector<int> owned;  // churn: live ids this connection may remove
};

struct LoadResult {
  long long attempted = 0;
  long long failed = 0;
  long long mismatches = 0;
  long long queries_done = 0;  // QUERY answers inside the measured window
  long long queries_answered = 0;  // every correct QUERY answer
  double recall_sum = 0.0;
  long long recall_n = 0;
  // Latencies inside the measured window, with completion times (seconds
  // into the window) so run.py can split the window into sub-windows.
  std::vector<double> query_us, query_t, insert_us, remove_us;
  // Completion time of every answered request inside the window, and the
  // server's CPU seconds sampled every kCpuSampleS.
  std::vector<double> done_t, cpu_t, cpu_s;
  std::vector<double> snapshot_ms;
  std::vector<double> reindex_window_us;  // QUERYs while a REINDEX runs
  double reindex_s = -1.0;
  double elapsed_s = 0.0;
};

}  // namespace

int RunLoad(const gdim::Flags& flags) {
  const int port = flags.GetInt("port", 0);
  const std::string dir = flags.GetString("dir", "");
  const std::string mode = flags.GetString("mode", "full");
  const int num_conns = std::clamp(flags.GetInt("conns", 1), 1, 4);
  const double seconds = flags.GetDouble("seconds", 5.0);
  const double warmup = flags.GetDouble("warmup", 0.0);
  const long long count = flags.GetInt("count", 0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int snapshot_every = flags.GetInt("snapshot-every", 0);
  const int compact_every = flags.GetInt("compact-every", 0);
  // Churn: one REINDEX, sent when the measured window closes; load goes on
  // until it answers.
  const bool reindex = flags.GetBool("reindex", false);
  const int initial_rows = flags.GetInt("rows", 0);
  // With a server pid, its CPU time is sampled through the measured window.
  const int server_pid = flags.GetInt("server-pid", 0);

  gdim::Result<gdim::GraphDatabase> queries =
      gdim::ReadGraphFile(QueriesPath(dir));
  gdim::Result<gdim::GraphDatabase> inserts =
      gdim::ReadGraphFile(InsertsPath(dir));
  if (!queries.ok() || !inserts.ok() || queries->empty() || inserts->empty()) {
    std::fprintf(stderr, "load: cannot read the inputs in %s\n", dir.c_str());
    return 1;
  }
  const std::vector<std::vector<std::string>> reference =
      ReadReference(ReferencePath(dir));
  const std::string query_prefix =
      mode == "approx" ? "QUERY 10 MODE=approx " : "QUERY 10 MODE=full ";
  std::vector<std::string> query_lines, insert_lines;
  for (const gdim::Graph& g : *queries) {
    query_lines.push_back(query_prefix + gdim::EncodeGraphInline(g) + "\n");
  }
  for (const gdim::Graph& g : *inserts) {
    insert_lines.push_back("INSERT " + gdim::EncodeGraphInline(g) + "\n");
  }
  const bool exact_check = (mode == "full" || mode == "hot") &&
                           reference.size() == query_lines.size();
  const bool recall_check =
      mode != "churn" && reference.size() == query_lines.size();

  QueryChooser chooser(mode, static_cast<int>(query_lines.size()), seed);
  gdim::Rng rng(seed ^ 0xC0FFEEULL);
  std::vector<Conn> conns(static_cast<size_t>(num_conns));
  for (int c = 0; c < num_conns; ++c) {
    conns[c].index = c;
    conns[c].fd = Connect(port);
    if (conns[c].fd < 0) {
      std::fprintf(stderr, "load: cannot connect to port %d\n", port);
      return 1;
    }
  }
  if (mode == "churn") {
    for (int id = 0; id < initial_rows; ++id) {
      conns[id % num_conns].owned.push_back(id);
    }
  }

  LoadResult res;
  long long issued = 0;
  long long next_insert = 0;
  long long snapshots_sent = 0;
  bool reindex_sent = false, reindex_done = !reindex;
  int pending_insert_id = -1;  // mode=mutate: the id to remove next
  long long inserts_in_flight = 0;  // churn: INSERTs not yet answered
  const Clock::time_point t0 = Clock::now();
  Clock::time_point measure_start = t0;
  bool measuring = warmup <= 0.0;
  bool window_closed = false;
  const auto window_time = [&]() { return SecondsSince(measure_start); };

  const auto finished = [&]() {
    if (count > 0) return issued >= count;
    return window_closed && reindex_done;
  };

  // Picks and sends the next request on an idle connection.
  const auto issue = [&](Conn& c) {
    std::string line;
    c.kind = Kind::kQuery;
    if (mode == "mutate") {
      if (pending_insert_id >= 0) {
        c.kind = Kind::kRemove;
        line = "REMOVE " + std::to_string(pending_insert_id) + "\n";
        pending_insert_id = -1;
      } else {
        c.kind = Kind::kInsert;
        line = insert_lines[next_insert++ % insert_lines.size()];
      }
    } else if (mode == "snapshot") {
      c.kind = Kind::kSnapshot;
      line = "SNAPSHOT " + dir + "/snap.gdx\n";
    } else if (reindex && window_closed && c.index == 0 && !reindex_sent) {
      c.kind = Kind::kReindex;
      reindex_sent = true;
      line = "REINDEX\n";
    } else if (mode == "churn" && snapshot_every > 0 && issued > 0 &&
               issued % snapshot_every == 0) {
      c.kind = Kind::kSnapshot;
      line = "SNAPSHOT " + dir + "/snap_" + std::to_string(snapshots_sent++) +
             ".gdx\n";
    } else if (mode == "churn" && compact_every > 1 &&
               issued % compact_every == compact_every / 2) {
      // Reclaims the tombstoned rows, so the physical row count stays
      // bounded however long the load runs.
      c.kind = Kind::kCompact;
      line = "COMPACT\n";
    } else if (mode == "churn" && rng.Bernoulli(0.2)) {
      // REMOVE while the store holds at least its initial rows, INSERT
      // below that: the live count stays put instead of random-walking
      // (by hundreds of rows over a run), so the scan's cost does too.
      long long live = inserts_in_flight;
      for (const Conn& other : conns) live += other.owned.size();
      if (!c.owned.empty() && live >= initial_rows) {
        c.kind = Kind::kRemove;
        const size_t pick = static_cast<size_t>(
            rng.UniformU64(static_cast<uint64_t>(c.owned.size())));
        line = "REMOVE " + std::to_string(c.owned[pick]) + "\n";
        c.owned[pick] = c.owned.back();
        c.owned.pop_back();
      } else {
        c.kind = Kind::kInsert;
        line = insert_lines[next_insert++ % insert_lines.size()];
        ++inserts_in_flight;
      }
    } else {
      c.query = chooser.Next();
      line = query_lines[c.query];
    }
    ++issued;
    ++res.attempted;
    c.busy = true;
    c.sent = Clock::now();
    if (!SendAll(c.fd, line)) {
      c.dead = true;
      c.busy = false;
      ++res.failed;
    }
  };

  // Checks one answer; returns false when it counts as a failure.
  const auto handle = [&](Conn& c, const std::string& line) {
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - c.sent)
            .count();
    if (line.rfind("OK", 0) != 0) return false;
    if (measuring) res.done_t.push_back(window_time());
    const std::vector<std::string> tok = Tokens(line);
    switch (c.kind) {
      case Kind::kQuery: {
        if (tok.size() < 2 ||
            std::atoi(tok[1].c_str()) != static_cast<int>(tok.size()) - 2) {
          return false;
        }
        const std::vector<std::string> got(tok.begin() + 2, tok.end());
        if (recall_check) {
          const std::vector<std::string>& want = reference[c.query];
          std::set<int> want_ids;
          for (const std::string& t : want) want_ids.insert(TokenId(t));
          int hits = 0;
          for (const std::string& t : got) {
            if (want_ids.count(TokenId(t)) == 0) continue;
            ++hits;
            // A returned reference row must carry its exact score.
            if (std::find(want.begin(), want.end(), t) == want.end()) {
              ++res.mismatches;
              return false;
            }
          }
          if (measuring && !want.empty()) {
            res.recall_sum += static_cast<double>(hits) / want.size();
            ++res.recall_n;
          }
        }
        // MODE=full answers must equal the reference token for token.
        if (exact_check && got != reference[c.query]) {
          ++res.mismatches;
          return false;
        }
        if (mode == "churn" && got.size() != static_cast<size_t>(kTopK)) {
          return false;
        }
        ++res.queries_answered;
        if (measuring) {
          res.query_us.push_back(us);
          res.query_t.push_back(window_time());
          ++res.queries_done;
        } else if (reindex_sent && !reindex_done) {
          res.reindex_window_us.push_back(us);
        }
        return true;
      }
      case Kind::kInsert:
        if (tok.size() != 2) return false;
        if (mode == "mutate") pending_insert_id = std::atoi(tok[1].c_str());
        if (mode == "churn") {
          c.owned.push_back(std::atoi(tok[1].c_str()));
          --inserts_in_flight;
        }
        if (measuring) res.insert_us.push_back(us);
        return true;
      case Kind::kRemove:
        if (tok.size() != 3 || tok[1] != "removed") return false;
        if (measuring) res.remove_us.push_back(us);
        return true;
      case Kind::kCompact:
        return line.rfind("OK compacted ", 0) == 0;
      case Kind::kSnapshot:
        if (measuring) res.snapshot_ms.push_back(us / 1e3);
        return true;
      case Kind::kReindex:
        res.reindex_s = us / 1e6;
        reindex_done = true;
        return line.rfind("OK reindexed", 0) == 0;
    }
    return false;
  };

  for (Conn& c : conns) issue(c);
  std::vector<pollfd> fds(conns.size());
  for (;;) {
    if (!measuring && !window_closed && SecondsSince(t0) >= warmup) {
      measuring = true;
      measure_start = Clock::now();
    }
    if (count == 0 && measuring && window_time() >= seconds) {
      measuring = false;
      window_closed = true;
      res.elapsed_s = window_time();
      // Idle connections pick up the REINDEX (and then stop) here.
      for (Conn& c : conns) {
        if (!c.busy && !c.dead && !finished()) issue(c);
      }
    }
    if (server_pid > 0 && measuring &&
        (res.cpu_t.empty() ||
         window_time() >= res.cpu_t.back() + kCpuSampleS)) {
      res.cpu_t.push_back(window_time());
      res.cpu_s.push_back(ProcessCpuSeconds(server_pid));
    }
    int busy = 0;
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i].fd, static_cast<short>(conns[i].busy ? POLLIN : 0),
                0};
      busy += conns[i].busy ? 1 : 0;
    }
    if (busy == 0) break;
    if (SecondsSince(t0) > kMaxSeconds) {
      std::fprintf(stderr, "load: gave up after %.0f s\n", kMaxSeconds);
      res.failed += busy;
      break;
    }
    // One connection spins instead of sleeping in poll(), so its round trip
    // does not include the client's own wake-up on a virtual CPU; with more
    // connections the client sleeps and leaves the cores to the server.
    if (poll(fds.data(), fds.size(), num_conns == 1 ? 0 : 1000) < 0) break;
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (!c.busy || (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char chunk[65536];
      const ssize_t r = recv(c.fd, chunk, sizeof(chunk), 0);
      if (r <= 0) {
        c.dead = true;
        c.busy = false;
        ++res.failed;
        continue;
      }
      c.inbuf.append(chunk, static_cast<size_t>(r));
      const size_t nl = c.inbuf.find('\n');
      if (nl == std::string::npos) continue;
      const std::string line = c.inbuf.substr(0, nl);
      c.inbuf.erase(0, nl + 1);
      c.busy = false;
      if (!handle(c, line)) {
        ++res.failed;
        std::fprintf(stderr, "load: bad answer: %.200s\n", line.c_str());
      }
      if (!c.dead && !finished()) issue(c);
    }
  }
  if (count > 0) res.elapsed_s = window_time();
  for (Conn& c : conns) close(c.fd);

  JsonOut out;
  out.Num("attempted", static_cast<double>(res.attempted));
  out.Num("failed", static_cast<double>(res.failed));
  out.Num("mismatches", static_cast<double>(res.mismatches));
  out.Num("queries_done", static_cast<double>(res.queries_done));
  out.Num("queries_answered", static_cast<double>(res.queries_answered));
  out.Num("elapsed_s", res.elapsed_s);
  out.Num("reindex_s", res.reindex_s);
  if (res.recall_n > 0) out.Num("recall", res.recall_sum / res.recall_n);
  out.Array("query_us", res.query_us);
  out.Array("query_t", res.query_t);
  out.Array("insert_us", res.insert_us);
  out.Array("remove_us", res.remove_us);
  out.Array("done_t", res.done_t);
  out.Array("cpu_t", res.cpu_t);
  out.Array("cpu_s", res.cpu_s);
  out.Array("reindex_window_us", res.reindex_window_us);
  out.Array("snapshot_ms", res.snapshot_ms);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

int RunCheck(const gdim::Flags& flags) {
  const int port = flags.GetInt("port", 0);
  const std::string dir = flags.GetString("dir", "");
  const std::string snapshot = flags.GetString("snapshot", "");
  const int limit = flags.GetInt("count", 200);
  gdim::ShardedOptions opts;
  opts.num_shards = kShards;
  gdim::Result<gdim::ShardedEngine> engine =
      gdim::ShardedEngine::Open(snapshot, opts);
  gdim::Result<gdim::GraphDatabase> queries =
      gdim::ReadGraphFile(QueriesPath(dir));
  if (!engine.ok() || !queries.ok()) {
    std::fprintf(stderr, "check: cannot open %s\n", snapshot.c_str());
    return 1;
  }
  const int fd = Connect(port);
  if (fd < 0) return 1;
  std::string buf, line;
  long long checked = 0, mismatches = 0;
  double recall_sum = 0.0;
  for (int i = 0; i < limit && i < static_cast<int>(queries->size()); ++i) {
    const gdim::Graph& q = (*queries)[static_cast<size_t>(i)];
    if (!SendAll(fd, "QUERY 10 MODE=full " + gdim::EncodeGraphInline(q) +
                         "\n") ||
        !ReadLine(fd, &buf, &line)) {
      ++mismatches;
      break;
    }
    const gdim::Ranking ranking = engine->Query(
        q, {.k = kTopK, .scan_mode = gdim::ScanMode::kFull});
    const std::vector<std::string> got = Tokens(line);
    ++checked;
    if (got.size() < 2 || got[0] != "OK" ||
        got[1] != std::to_string(ranking.size()) ||
        std::vector<std::string>(got.begin() + 2, got.end()) !=
            WireTokens(ranking)) {
      ++mismatches;
    }
    std::set<std::string> got_ids;
    for (size_t t = 2; t < got.size(); ++t) {
      got_ids.insert(got[t].substr(0, got[t].find(':')));
    }
    int hits = 0;
    for (const gdim::RankedResult& r : ranking) {
      hits += got_ids.count(std::to_string(r.id)) > 0 ? 1 : 0;
    }
    recall_sum += ranking.empty() ? 1.0
                                  : static_cast<double>(hits) / ranking.size();
  }
  close(fd);
  JsonOut out;
  out.Num("checked", static_cast<double>(checked));
  out.Num("mismatches", static_cast<double>(mismatches));
  if (checked > 0) out.Num("recall", recall_sum / checked);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace perfbench
