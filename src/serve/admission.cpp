#include "serve/admission.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/fastpath.hpp"
#include "support/check.hpp"

namespace tvnep::serve {

namespace {

constexpr double kTimeTol = 1e-9;

/// A client-supplied mapping comes straight off the wire: the parse layer
/// only knows the request, not the substrate, so the engine is the first
/// place the node ids can be bounds-checked. Rejecting here keeps both the
/// greedy step (TvnepInstance::add_request would throw) and the fastpath
/// router (which indexes residual arrays with these ids) safe.
bool mapping_valid(const RequestMessage& message, int substrate_nodes) {
  if (!message.mapping.has_value()) return true;
  if (message.mapping->size() !=
      static_cast<std::size_t>(message.request.num_nodes()))
    return false;
  for (net::NodeId node : *message.mapping)
    if (node < 0 || node >= substrate_nodes) return false;
  return true;
}

}  // namespace

AdmissionEngine::AdmissionEngine(net::SubstrateNetwork substrate,
                                 AdmissionOptions options)
    : substrate_(std::move(substrate)), options_(std::move(options)) {}

void AdmissionEngine::advance_now(double t_s,
                                  std::vector<std::uint64_t>* retired_out) {
  now_ = std::max(now_, t_s);
  if (!options_.gc || active_.empty()) return;
  // Retire whole overlap-closure components, never single commits. An
  // ended commit (end <= now) cannot couple a *future candidate* — but it
  // can still share an instant with a live neighbor straddling now, and a
  // later step that re-embeds that neighbor must keep seeing the ended
  // commit's flows (batch greedy would). Only when an entire component has
  // ended can none of it constrain anything the engine will solve again.
  const std::size_t n = active_.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (active_[i].start < active_[j].end &&
          active_[j].start < active_[i].end)
        parent[find(i)] = find(j);
  std::vector<double> component_end(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    component_end[root] = std::max(component_end[root], active_[i].end);
  }
  std::vector<Commit> still;
  still.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (component_end[find(i)] > now_ + kTimeTol) {
      still.push_back(std::move(active_[i]));
    } else {
      if (retired_out != nullptr) retired_out->push_back(active_[i].seq);
      retired_.push_back(std::move(active_[i]));
    }
  }
  active_ = std::move(still);
}

void AdmissionEngine::collect_component(double window_start, double window_end,
                                        std::vector<std::size_t>* out) const {
  const std::size_t n = active_.size();
  std::vector<char> in(n, 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    if (active_[i].start < window_end && window_start < active_[i].end) {
      in[i] = 1;
      stack.push_back(i);
    }
  }
  // Transitive closure over interval overlap: any commit that co-occurs
  // with one already in the set can constrain the candidate indirectly.
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (std::size_t j = 0; j < n; ++j) {
      if (in[j]) continue;
      if (active_[j].start < active_[i].end &&
          active_[i].start < active_[j].end) {
        in[j] = 1;
        stack.push_back(j);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (in[i]) out->push_back(i);  // ascending index == admission order
}

AdmitResult AdmissionEngine::admit(const RequestMessage& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::SpanScope span("serve.step", "serve");
  StateTransition txn;
  AdmitResult result = admit_locked(message, &txn);
  emit_decision_locked(message, result, /*fastpath=*/false, &txn);
  obs::histogram_observe("serve.step.component_size",
                         static_cast<double>(result.component_size));
  return result;
}

AdmitResult AdmissionEngine::admit_locked(const RequestMessage& message,
                                          StateTransition* txn) {
  AdmitResult result;
  if (!mapping_valid(message, substrate_.num_nodes())) {
    result.outcome = AdmitOutcome::kInvalidMapping;
    return result;
  }
  advance_now(message.request.earliest_start(), &txn->retired);

  // Clamp the window to the virtual now: a request cannot start in the
  // past. For nondecreasing arrival traces the clamp is the identity, so
  // the online outcome matches batch greedy exactly.
  net::VnetRequest candidate = message.request;
  if (candidate.latest_start() < now_ - kTimeTol) {
    result.outcome = AdmitOutcome::kWindowClosed;
    return result;
  }
  const double effective_start = std::max(candidate.earliest_start(), now_);
  candidate.set_temporal(effective_start,
                         std::max(candidate.latest_end(),
                                  effective_start + candidate.duration()),
                         candidate.duration());

  std::vector<std::size_t> component;
  collect_component(effective_start, candidate.latest_end(), &component);
  result.component_size = static_cast<int>(component.size());
  if (options_.max_step_requests > 0 &&
      static_cast<int>(component.size()) + 1 > options_.max_step_requests) {
    result.outcome = AdmitOutcome::kComponentTooLarge;
    return result;
  }

  // The pruned step instance: the component's commits pinned to their
  // schedules (admission forced), plus the candidate as the greedy target.
  net::TvnepInstance working(substrate_, 0.0);
  std::vector<int> force_accept;
  for (std::size_t idx : component) {
    const Commit& c = active_[idx];
    net::VnetRequest pinned = c.original;
    pinned.set_temporal(c.start, c.end, pinned.duration());
    force_accept.push_back(working.add_request(std::move(pinned), c.mapping));
  }
  const int target = working.add_request(candidate, message.mapping);
  working.fit_horizon();

  const greedy::GreedyStepResult step = greedy::solve_greedy_step(
      working, target, force_accept, {}, options_.greedy);
  if (step.step.status != mip::MipStatus::kOptimal) {
    result.outcome = AdmitOutcome::kSolverFailed;
    return result;
  }
  if (!step.accepted) {
    // A proven reject carries no fresh allocation: the component keeps its
    // stored flows, which are already jointly feasible.
    result.outcome = AdmitOutcome::kRejected;
    return result;
  }

  // Refresh the component's stored flows from the step solution — one
  // jointly consistent allocation per component, and components never
  // overlap in time, so the stored state stays globally consistent.
  for (std::size_t k = 0; k < component.size(); ++k)
    active_[component[k]].embedding =
        step.step.solution.requests[static_cast<std::size_t>(k)];

  Commit commit;
  commit.seq = next_seq_++;
  commit.id = message.id;
  commit.original = message.request;
  commit.mapping = message.mapping;
  commit.start = step.start;
  commit.end = step.end;
  commit.embedding =
      step.step.solution.requests[static_cast<std::size_t>(target)];
  active_.push_back(std::move(commit));
  // Pointers only after the push_back: it may reallocate active_.
  for (std::size_t idx : component) txn->refreshed.push_back(&active_[idx]);
  txn->commit = &active_.back();
  ++version_;
  ++accepted_total_;
  result.outcome = AdmitOutcome::kAccepted;
  result.start = step.start;
  result.end = step.end;
  return result;
}

AdmitResult AdmissionEngine::admit_fastpath(const RequestMessage& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::SpanScope span("serve.fastpath", "serve");
  StateTransition txn;
  AdmitResult result = fastpath_locked(message, &txn);
  emit_decision_locked(message, result, /*fastpath=*/true, &txn);
  return result;
}

AdmitResult AdmissionEngine::fastpath_locked(const RequestMessage& message,
                                             StateTransition* txn) {
  AdmitResult result;
  if (!mapping_valid(message, substrate_.num_nodes())) {
    result.outcome = AdmitOutcome::kInvalidMapping;
    return result;
  }
  advance_now(message.request.earliest_start(), &txn->retired);

  net::VnetRequest candidate = message.request;
  if (candidate.latest_start() < now_ - kTimeTol) {
    result.outcome = AdmitOutcome::kWindowClosed;
    return result;
  }
  const double effective_start = std::max(candidate.earliest_start(), now_);
  candidate.set_temporal(effective_start,
                         std::max(candidate.latest_end(),
                                  effective_start + candidate.duration()),
                         candidate.duration());

  const FastpathResult routed =
      fastpath_route(substrate_, active_, candidate, message.mapping);
  if (!routed.accepted) {
    result.outcome = AdmitOutcome::kRejected;
    return result;
  }

  Commit commit;
  commit.seq = next_seq_++;
  commit.id = message.id;
  commit.original = message.request;
  commit.mapping = message.mapping;
  commit.start = routed.start;
  commit.end = routed.end;
  commit.embedding = routed.embedding;
  commit.fastpath = true;
  active_.push_back(std::move(commit));
  txn->commit = &active_.back();
  ++version_;
  ++accepted_total_;
  result.outcome = AdmitOutcome::kAccepted;
  result.start = routed.start;
  result.end = routed.end;
  return result;
}

void AdmissionEngine::emit_decision_locked(const RequestMessage& message,
                                           const AdmitResult& result,
                                           bool fastpath,
                                           StateTransition* txn) {
  ++decisions_total_;
  if (!sink_) return;
  txn->kind = StateTransition::Kind::kDecision;
  txn->request_id = message.id;
  txn->outcome = result.outcome;
  txn->fastpath = fastpath;
  txn->now = now_;
  txn->version = version_;
  txn->next_seq = next_seq_;
  txn->accepted_total = accepted_total_;
  txn->decisions = decisions_total_;
  sink_(*txn);
}

double AdmissionEngine::virtual_now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_;
}

std::uint64_t AdmissionEngine::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

std::size_t AdmissionEngine::active_commits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_.size();
}

std::size_t AdmissionEngine::retired_commits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retired_.size();
}

std::uint64_t AdmissionEngine::decisions_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decisions_total_;
}

void AdmissionEngine::set_state_sink(StateSink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

AdmissionEngine::Snapshot AdmissionEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.version = version_;
  snap.now = now_;
  snap.commits = active_;
  snap.next_seq = next_seq_;
  snap.accepted_total = accepted_total_;
  snap.decisions = decisions_total_;
  return snap;
}

AdmissionEngine::Snapshot AdmissionEngine::snapshot_full() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_full_locked();
}

AdmissionEngine::Snapshot AdmissionEngine::snapshot_full_locked() const {
  Snapshot snap;
  snap.version = version_;
  snap.now = now_;
  snap.commits = active_;
  snap.retired = retired_;
  snap.next_seq = next_seq_;
  snap.accepted_total = accepted_total_;
  snap.decisions = decisions_total_;
  return snap;
}

void AdmissionEngine::with_snapshot_full(
    const std::function<void(const Snapshot&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  fn(snapshot_full_locked());
}

void AdmissionEngine::restore(const Snapshot& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  TVNEP_REQUIRE(active_.empty() && retired_.empty() && decisions_total_ == 0,
                "restore requires a pristine engine");
  active_ = state.commits;
  retired_ = state.retired;
  now_ = state.now;
  version_ = state.version;
  next_seq_ = state.next_seq;
  accepted_total_ = state.accepted_total;
  decisions_total_ = state.decisions;
}

bool AdmissionEngine::try_install(std::uint64_t expected_version,
                                  const std::vector<NewSchedule>& reschedules,
                                  const std::vector<NewSchedule>& embeddings) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (version_ != expected_version) {
    obs::counter_add("serve.reopt.stale");
    return false;
  }
  auto find_active = [&](std::uint64_t seq) -> Commit* {
    for (Commit& c : active_)
      if (c.seq == seq) return &c;
    return nullptr;
  };
  // Validate before mutating: all-or-nothing.
  std::vector<std::pair<Commit*, const NewSchedule*>> moves;
  for (const NewSchedule& schedule : reschedules) {
    Commit* commit = find_active(schedule.seq);
    if (commit == nullptr) {
      obs::counter_add("serve.reopt.stale");
      return false;
    }
    // Never move a request that has already started (virtually).
    if (commit->start <= now_ + kTimeTol || schedule.start < now_ - kTimeTol) {
      obs::counter_add("serve.reopt.stale");
      return false;
    }
    moves.emplace_back(commit, &schedule);
  }
  for (auto& [commit, schedule] : moves) {
    commit->start = schedule->start;
    commit->end = schedule->end;
    commit->embedding = schedule->embedding;
  }
  // Refresh the pinned commits' flows too: the reopt solution is one joint
  // allocation over the whole active set.
  for (const NewSchedule& embedding : embeddings) {
    if (Commit* commit = find_active(embedding.seq))
      commit->embedding = embedding.embedding;
  }
  ++version_;
  if (sink_) {
    StateTransition txn;
    txn.kind = StateTransition::Kind::kInstall;
    txn.reschedules = &reschedules;
    txn.embeddings = &embeddings;
    txn.now = now_;
    txn.version = version_;
    txn.next_seq = next_seq_;
    txn.accepted_total = accepted_total_;
    txn.decisions = decisions_total_;
    sink_(txn);
  }
  obs::counter_add("serve.reopt.installed");
  return true;
}

std::vector<Commit> AdmissionEngine::history() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Commit> all = retired_;
  all.insert(all.end(), active_.begin(), active_.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const Commit& a, const Commit& b) { return a.seq < b.seq; });
  return all;
}

}  // namespace tvnep::serve
