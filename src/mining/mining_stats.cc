#include "mining/mining_stats.h"

#include <sstream>

#include "util/json_writer.h"

namespace pincer {

std::string MiningStats::ToString() const {
  std::ostringstream os;
  os << "passes: " << passes << "\n"
     << "reported candidates (>= pass 3, incl. MFCS): " << reported_candidates
     << "\n"
     << "total candidates (all passes): " << total_candidates << "\n"
     << "MFCS candidates: " << mfcs_candidates << "\n"
     << "elapsed: " << elapsed_millis << " ms\n"
     << "counting threads: " << num_threads << "\n";
  if (aborted) {
    os << "run aborted ("
       << (budget_exceeded ? "time budget exceeded" : "pass cap reached")
       << "); result incomplete\n";
  }
  if (mfcs_disabled) {
    os << "MFCS maintenance abandoned at pass " << mfcs_disabled_at_pass
       << " (adaptive policy)\n";
  }
  if (retries > 0) os << "I/O retries: " << retries << "\n";
  if (rows_skipped > 0) {
    os << "malformed rows skipped: " << rows_skipped << "\n";
  }
  if (rows_dropped_items > 0) {
    os << "out-of-universe items dropped: " << rows_dropped_items << "\n";
  }
  for (const PassStats& pass : per_pass) {
    os << "  pass " << pass.pass << ": candidates=" << pass.num_candidates
       << " mfcs_candidates=" << pass.num_mfcs_candidates
       << " frequent=" << pass.num_frequent
       << " mfs_found=" << pass.num_mfs_found
       << " mfcs_after=" << pass.mfcs_size_after
       << " backend=" << pass.backend_used << "\n";
  }
  return os.str();
}

void PassStats::ToJson(JsonWriter& json) const {
  json.BeginObject();
  json.KeyValue("pass", static_cast<uint64_t>(pass));
  json.KeyValue("candidates", static_cast<uint64_t>(num_candidates));
  json.KeyValue("mfcs_candidates", static_cast<uint64_t>(num_mfcs_candidates));
  json.KeyValue("frequent", static_cast<uint64_t>(num_frequent));
  json.KeyValue("mfs_found", static_cast<uint64_t>(num_mfs_found));
  json.KeyValue("mfcs_size_after", static_cast<uint64_t>(mfcs_size_after));
  json.KeyValue("candidate_gen_ms", candidate_gen_ms);
  json.KeyValue("counting_ms", counting_ms);
  json.KeyValue("mfcs_update_ms", mfcs_update_ms);
  json.KeyValue("mfcs_index_ms", mfcs_index_ms);
  json.KeyValue("backend_used", backend_used);
  json.EndObject();
}

void MiningStats::ToJson(JsonWriter& json) const {
  json.BeginObject();
  json.KeyValue("passes", static_cast<uint64_t>(passes));
  json.KeyValue("reported_candidates", reported_candidates);
  json.KeyValue("total_candidates", total_candidates);
  json.KeyValue("mfcs_candidates", mfcs_candidates);
  json.KeyValue("elapsed_ms", elapsed_millis);
  json.KeyValue("num_threads", static_cast<uint64_t>(num_threads));
  json.KeyValue("aborted", aborted);
  json.KeyValue("budget_exceeded", budget_exceeded);
  json.KeyValue("mfcs_disabled", mfcs_disabled);
  json.KeyValue("mfcs_disabled_at_pass",
                static_cast<uint64_t>(mfcs_disabled_at_pass));
  json.KeyValue("retries", retries);
  json.KeyValue("rows_skipped", rows_skipped);
  json.KeyValue("rows_dropped_items", rows_dropped_items);
  json.Key("counting");
  counting.ToJson(json);
  json.Key("per_pass").BeginArray();
  for (const PassStats& pass : per_pass) pass.ToJson(json);
  json.EndArray();
  json.EndObject();
}

std::string MiningStats::ToJsonString() const {
  std::ostringstream os;
  JsonWriter json(os);
  ToJson(json);
  return os.str();
}

}  // namespace pincer
