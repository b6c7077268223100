// Client for the pincer_serve daemon: builds one request line, sends it,
// prints the response. --format=text renders a mine response in mine_cli's
// output format (same "support <tab> items" lines), so a served result can
// be diffed against a cold CLI run — the serve-smoke CI job does exactly
// that.
//
//   ./pincer_query (--socket=PATH | --port=N) [request flags]
//     --op=mine|ping|list|shutdown   (default mine)
//     --database=NAME --min-support=F
//     --algorithm=apriori|apriori-combined|pincer|pincer-adaptive
//     --max-passes=N
//     --mfcs-cardinality-limit=N --mfcs-work-limit=N
//     --budget-ms=MS --no-cache --id=TOKEN
//     --format=json|text             (default json: the raw response line)
//     --connect-timeout-ms=MS        keep retrying a refused connect (capped
//                                    exponential backoff) for up to MS;
//                                    default 0 = one attempt. Lets scripts
//                                    race the daemon's startup safely.
//
// Exit status: 0 iff the daemon answered ok:true; 1 on an error response or
// transport failure; 2 on bad usage.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/parse_number.h"
#include "util/retry.h"
#include "util/socket.h"
#include "util/timer.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--socket=PATH | --port=N) [--op=mine|ping|list|shutdown] "
               "[--database=NAME] [--min-support=F] [--algorithm=NAME] "
               "[--max-passes=N] "
               "[--mfcs-cardinality-limit=N] [--mfcs-work-limit=N] "
               "[--budget-ms=MS] [--no-cache] [--id=TOKEN] "
               "[--format=json|text] [--connect-timeout-ms=MS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pincer;

  std::string socket_path;
  std::optional<uint16_t> tcp_port;
  std::string op = "mine";
  std::string database;
  std::optional<double> min_support;
  std::string algorithm;
  std::optional<size_t> max_passes;
  std::optional<size_t> mfcs_cardinality_limit;
  std::optional<size_t> mfcs_work_limit;
  std::optional<double> budget_ms;
  bool no_cache = false;
  std::string id;
  std::string format = "json";
  double connect_timeout_ms = 0;

  const auto parse_size = [&](const std::string& arg, size_t prefix,
                              const char* what, std::optional<size_t>& out) {
    const StatusOr<size_t> parsed = ParseSize(arg.substr(prefix), what);
    if (!parsed.ok()) {
      std::cerr << parsed.status() << "\n";
      return false;
    }
    out = *parsed;
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg.rfind("--port=", 0) == 0) {
      const StatusOr<uint64_t> parsed = ParseUint64(arg.substr(7), "--port");
      if (!parsed.ok() || *parsed > 65535) {
        std::cerr << "--port needs a number in [0, 65535]\n";
        return 2;
      }
      tcp_port = static_cast<uint16_t>(*parsed);
    } else if (arg.rfind("--op=", 0) == 0) {
      op = arg.substr(5);
    } else if (arg.rfind("--database=", 0) == 0) {
      database = arg.substr(11);
    } else if (arg.rfind("--min-support=", 0) == 0) {
      const StatusOr<double> parsed =
          ParseDouble(arg.substr(14), "--min-support");
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      min_support = *parsed;
    } else if (arg.rfind("--algorithm=", 0) == 0) {
      algorithm = arg.substr(12);
    } else if (arg.rfind("--max-passes=", 0) == 0) {
      if (!parse_size(arg, 13, "--max-passes", max_passes)) return 2;
    } else if (arg.rfind("--mfcs-cardinality-limit=", 0) == 0) {
      if (!parse_size(arg, 25, "--mfcs-cardinality-limit",
                      mfcs_cardinality_limit)) {
        return 2;
      }
    } else if (arg.rfind("--mfcs-work-limit=", 0) == 0) {
      if (!parse_size(arg, 18, "--mfcs-work-limit", mfcs_work_limit)) {
        return 2;
      }
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      const StatusOr<double> parsed =
          ParseDouble(arg.substr(12), "--budget-ms");
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        return 2;
      }
      budget_ms = *parsed;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg.rfind("--id=", 0) == 0) {
      id = arg.substr(5);
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "json" && format != "text") {
        std::cerr << "--format must be 'json' or 'text'\n";
        return 2;
      }
    } else if (arg.rfind("--connect-timeout-ms=", 0) == 0) {
      const StatusOr<double> parsed =
          ParseDouble(arg.substr(21), "--connect-timeout-ms");
      if (!parsed.ok() || *parsed < 0) {
        std::cerr << "--connect-timeout-ms needs a number >= 0\n";
        return 2;
      }
      connect_timeout_ms = *parsed;
    } else {
      return Usage(argv[0]);
    }
  }
  if (socket_path.empty() == !tcp_port.has_value()) {
    std::cerr << "exactly one of --socket=PATH or --port=N is required\n";
    return Usage(argv[0]);
  }

  std::ostringstream request_os;
  {
    JsonWriter json(request_os, /*indent=*/0);
    json.BeginObject();
    json.KeyValue("op", op);
    if (!id.empty()) json.KeyValue("id", id);
    if (!database.empty()) json.KeyValue("database", database);
    if (min_support.has_value()) json.KeyValue("min_support", *min_support);
    if (!algorithm.empty()) json.KeyValue("algorithm", algorithm);
    if (max_passes.has_value()) {
      json.KeyValue("max_passes", static_cast<uint64_t>(*max_passes));
    }
    if (mfcs_cardinality_limit.has_value()) {
      json.KeyValue("mfcs_cardinality_limit",
                    static_cast<uint64_t>(*mfcs_cardinality_limit));
    }
    if (mfcs_work_limit.has_value()) {
      json.KeyValue("mfcs_work_limit",
                    static_cast<uint64_t>(*mfcs_work_limit));
    }
    if (budget_ms.has_value()) json.KeyValue("budget_ms", *budget_ms);
    if (no_cache) json.KeyValue("no_cache", true);
    json.EndObject();
  }

  const auto connect = [&socket_path, &tcp_port] {
    return socket_path.empty() ? ConnectTcp(*tcp_port)
                               : ConnectUnix(socket_path);
  };
  StatusOr<UniqueFd> conn = connect();
  if (!conn.ok() && connect_timeout_ms > 0) {
    // The daemon may still be starting (scripts launch it and query right
    // away): retry with capped exponential backoff until the deadline.
    RetryPolicy policy;
    policy.initial_backoff_ms = 10;
    policy.multiplier = 2.0;
    policy.max_backoff_ms = 250;
    Timer timer;
    for (size_t retry = 1; !conn.ok(); ++retry) {
      const double remaining = connect_timeout_ms - timer.ElapsedMillis();
      if (remaining <= 0) break;
      const double sleep_ms = std::min(BackoffMs(policy, retry), remaining);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
      conn = connect();
    }
  }
  if (!conn.ok()) {
    std::cerr << "error: " << conn.status() << "\n";
    return 1;
  }
  if (const Status status = WriteLine(*conn, request_os.str());
      !status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  LineReader reader(*conn);
  std::string response;
  const StatusOr<bool> got = reader.ReadLine(response);
  if (!got.ok()) {
    std::cerr << "error: " << got.status() << "\n";
    return 1;
  }
  if (!*got) {
    std::cerr << "error: daemon closed the connection without responding\n";
    return 1;
  }

  const StatusOr<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok() || !parsed->is_object()) {
    std::cerr << "error: unparseable response: " << response << "\n";
    return 1;
  }
  const JsonValue* ok = parsed->Find("ok");
  const bool succeeded =
      ok != nullptr && ok->AsBool().has_value() && *ok->AsBool();

  if (format == "text" && succeeded && op == "mine") {
    const JsonValue* mfs = parsed->Find("mfs");
    if (mfs == nullptr || !mfs->is_array()) {
      std::cerr << "error: mine response without mfs array\n";
      return 1;
    }
    std::cout << "# maximal frequent itemsets: " << mfs->array.size() << "\n";
    std::cout << "# format: support <tab> items...\n";
    for (const JsonValue& element : mfs->array) {
      const JsonValue* support = element.Find("support");
      const JsonValue* items = element.Find("items");
      if (support == nullptr || items == nullptr || !items->is_array()) {
        std::cerr << "error: malformed mfs element\n";
        return 1;
      }
      std::cout << support->scalar << "\t";
      for (size_t i = 0; i < items->array.size(); ++i) {
        if (i > 0) std::cout << ' ';
        std::cout << items->array[i].scalar;
      }
      std::cout << "\n";
    }
  } else {
    std::cout << response << "\n";
  }
  if (!succeeded) {
    const JsonValue* error = parsed->Find("error");
    std::cerr << "error: "
              << (error != nullptr && error->AsString().has_value()
                      ? std::string(*error->AsString())
                      : std::string("request failed"))
              << "\n";
    return 1;
  }
  return 0;
}
