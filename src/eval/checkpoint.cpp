#include "eval/checkpoint.hpp"

#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include "eval/runner.hpp"
#include "support/journal.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"

namespace tvnep::eval {

namespace {

constexpr JournalFormat kSweepFormat{"journal", "tvnep-sweep", 1};

JournalValue decode_value(const JsonValue& value, const std::string& path,
                          long line) {
  if (value.is_number()) return JournalValue(value.as_number());
  if (value.is_string()) return JournalValue(value.as_string());
  if (value.is_bool()) return JournalValue(value.as_bool());
  throw ParseError(path, line, 0,
                   "journal field is not a number, string or bool");
}

CellRecord decode_record(const JsonValue& value, const std::string& path,
                         long line) {
  CellRecord record;
  record.key.label = string_member(value, "label", path, line);
  record.key.flex_index =
      require_index(member(value, "flex_index", path, line), "flex_index",
                    kAnyIntIndex, path, line);
  record.key.seed = require_index(member(value, "seed", path, line), "seed",
                                  kAnyIntIndex, path, line);
  for (const auto& [name, field] : object_member(value, "fields", path, line))
    record.fields[name] = decode_value(field, path, line);
  return record;
}

}  // namespace

double JournalValue::as_number(double fallback) const {
  switch (kind) {
    case Kind::kNumber: return number;
    case Kind::kBool: return boolean ? 1.0 : 0.0;
    case Kind::kString:
      if (string == "inf") return std::numeric_limits<double>::infinity();
      if (string == "-inf") return -std::numeric_limits<double>::infinity();
      if (string == "nan") return std::numeric_limits<double>::quiet_NaN();
      return fallback;
  }
  return fallback;
}

bool JournalValue::as_bool(bool fallback) const {
  switch (kind) {
    case Kind::kBool: return boolean;
    case Kind::kNumber: return number != 0.0;
    case Kind::kString: return fallback;
  }
  return fallback;
}

std::uint64_t cell_key_hash(const CellKey& key) {
  std::uint64_t hash = fnv1a(key.label);
  hash = fnv1a("/" + std::to_string(key.flex_index), hash);
  hash = fnv1a("/" + std::to_string(key.seed), hash);
  return hash;
}

double CellRecord::number(const std::string& name, double fallback) const {
  const auto it = fields.find(name);
  return it == fields.end() ? fallback : it->second.as_number(fallback);
}

bool CellRecord::boolean(const std::string& name, bool fallback) const {
  const auto it = fields.find(name);
  return it == fields.end() ? fallback : it->second.as_bool(fallback);
}

std::string CellRecord::text(const std::string& name,
                             const std::string& fallback) const {
  const auto it = fields.find(name);
  if (it == fields.end() || it->second.kind != JournalValue::Kind::kString)
    return fallback;
  return it->second.string;
}

std::string journal_value_json(const JournalValue& value) {
  switch (value.kind) {
    case JournalValue::Kind::kBool: return value.boolean ? "true" : "false";
    case JournalValue::Kind::kString: return json_quote(value.string);
    case JournalValue::Kind::kNumber:
      if (std::isnan(value.number)) return "\"nan\"";
      if (std::isinf(value.number))
        return value.number > 0 ? "\"inf\"" : "\"-inf\"";
      return exact_number(value.number);
  }
  return "null";
}

std::string journal_record_json(const CellRecord& record) {
  std::string out = "{\"label\":" + json_quote(record.key.label) +
                    ",\"flex_index\":" +
                    std::to_string(record.key.flex_index) +
                    ",\"seed\":" + std::to_string(record.key.seed) +
                    ",\"fields\":{";
  bool first = true;
  for (const auto& [name, value] : record.fields) {
    if (!first) out += ',';
    out += json_quote(name) + ":" + journal_value_json(value);
    first = false;
  }
  out += "}}";
  return out;
}

SweepJournal::~SweepJournal() = default;

std::unique_ptr<SweepJournal> SweepJournal::create(const std::string& path,
                                                   std::uint64_t fingerprint) {
  auto journal = std::unique_ptr<SweepJournal>(new SweepJournal());
  journal->journal_ = Journal::create(path, kSweepFormat, fingerprint);
  return journal;
}

std::unique_ptr<SweepJournal> SweepJournal::resume(const std::string& path,
                                                   std::uint64_t fingerprint) {
  auto journal = std::unique_ptr<SweepJournal>(new SweepJournal());
  std::vector<JournalRecord> records;
  journal->journal_ =
      Journal::open(path, kSweepFormat, fingerprint, {}, &records);
  if (journal->journal_->torn_repaired())
    std::cerr << "journal: dropped torn final record at " << path << '\n';
  for (const JournalRecord& line : records) {
    CellRecord record = decode_record(line.value, path, line.line);
    // Last record wins: a cell journaled twice (e.g. a resume raced the
    // original's fsync) keeps its most recent row.
    journal->records_[record.key] = std::move(record);
  }
  journal->loaded_ = journal->records_.size();
  return journal;
}

const CellRecord* SweepJournal::find(const CellKey& key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

bool SweepJournal::append(const CellRecord& record) {
  const std::string json = journal_record_json(record);
  std::lock_guard<std::mutex> lock(append_mutex_);
  return journal_->append(json).durable;
}

const std::string& SweepJournal::path() const { return journal_->path(); }

std::uint64_t sweep_fingerprint(const SweepConfig& config,
                                const std::string& bench_id) {
  std::ostringstream os;
  os.precision(17);
  const workload::WorkloadParams& w = config.base;
  os << "bench=" << bench_id << ";requests=" << w.num_requests
     << ";grid=" << w.grid_rows << "x" << w.grid_cols
     << ";leaves=" << w.star_leaves << ";ncap=" << w.node_capacity
     << ";lcap=" << w.link_capacity << ";dmin=" << w.demand_min
     << ";dmax=" << w.demand_max << ";arrival=" << w.interarrival_mean
     << ";weibull=" << w.weibull_shape << "," << w.weibull_scale
     << ";fixmap=" << w.fix_node_mappings << ";flex=";
  for (const double f : config.flexibilities) os << f << ",";
  os << ";seeds=" << config.seeds << ";tl=" << config.time_limit
     << ";presolve=" << config.presolve << ";scaling=" << config.lp_scaling
     << ";fault=" << config.lp_fault_period << "/" << config.lp_fault_burst
     << ";cuts=" << config.build.dependency_cuts
     << config.build.pairwise_cuts << config.build.precedence_cuts
     << ";obj=" << static_cast<int>(config.build.objective)
     << ";cell_timeout=" << config.cell_timeout
     // Sweeps no longer retry cells; the constant term keeps every
     // fingerprint, and with it every journal on disk, resumable.
     << ";cell_retries=0";
  return fnv1a(os.str());
}

}  // namespace tvnep::eval
