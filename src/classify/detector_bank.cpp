#include "classify/detector_bank.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/edf.hpp"
#include "util/check.hpp"

namespace linkpad::classify {

// ------------------------------------------------------------------ Detector

Detector::Detector(DetectorSpec spec, std::size_t num_classes)
    : spec_(std::move(spec)),
      num_classes_(num_classes),
      bin_width_(spec_.adversary.entropy_bin_width),
      confusion_(num_classes) {
  LINKPAD_EXPECTS(num_classes >= 2);
  LINKPAD_EXPECTS(spec_.adversary.window_size >= 2);
  // Mirror EdfClassifier::train's floor so a bad knob fails at
  // construction, not deep inside train() with an internal-state message.
  if (is_edf()) LINKPAD_EXPECTS(spec_.edf_max_reference >= 16);
  if (is_cpd()) {
    LINKPAD_EXPECTS(!is_edf());
    // The two-sided schemes target one class per side (cpd.hpp).
    LINKPAD_EXPECTS(num_classes == 2);
    LINKPAD_EXPECTS(spec_.cpd->max_training_samples >= 2);
  }
  if (!needs_bin_width()) prepare();
}

Detector::Detector(const Detector& other)
    : spec_(other.spec_),
      num_classes_(other.num_classes_),
      bin_width_(other.bin_width_),
      prepared_(other.prepared_),
      trained_(other.trained_),
      window_buffers_(other.window_buffers_),
      training_features_(other.training_features_),
      references_(other.references_),
      priors_(other.priors_),
      classifier_(other.classifier_),
      confusion_(other.confusion_),
      cpd_model_(other.cpd_model_),
      cpd_states_(other.cpd_states_),
      checkpoints_(other.checkpoints_),
      test_consumed_(other.test_consumed_),
      next_checkpoint_(other.next_checkpoint_),
      checkpoint_rows_(other.checkpoint_rows_),
      cpd_rows_(other.cpd_rows_) {
  accumulators_.reserve(other.accumulators_.size());
  for (const auto& acc : other.accumulators_) {
    accumulators_.push_back(acc->clone());
  }
}

Detector& Detector::operator=(const Detector& other) {
  if (this == &other) return *this;
  Detector copy(other);
  *this = std::move(copy);
  return *this;
}

std::string Detector::name() const {
  if (is_cpd()) return spec_.cpd->name();
  if (is_edf()) {
    return spec_.edf == EdfDistance::kKolmogorovSmirnov ? "EDF nearest (KS)"
                                                        : "EDF nearest (CvM)";
  }
  return feature_name(spec_.adversary.feature);
}

bool Detector::needs_bin_width() const {
  return !is_edf() && !is_cpd() &&
         spec_.adversary.feature == FeatureKind::kSampleEntropy &&
         bin_width_ <= 0.0;
}

void Detector::set_bin_width(double bin_width) {
  LINKPAD_EXPECTS(bin_width > 0.0);
  LINKPAD_EXPECTS(!prepared_);
  bin_width_ = bin_width;
  prepare();
}

void Detector::prepare() {
  LINKPAD_EXPECTS(!prepared_);
  if (is_cpd()) {
    // Windowless: the only pre-training state is the raw-PIAT pool
    // (training_features_ doubles as it — capped, first-k per class).
    training_features_.resize(num_classes_);
    prepared_ = true;
    return;
  }
  if (is_edf()) {
    window_buffers_.resize(num_classes_);
    for (auto& buffer : window_buffers_) {
      buffer.reserve(spec_.adversary.window_size);
    }
    references_.resize(num_classes_);
  } else {
    AccumulatorOptions options;
    options.entropy_bin_width = bin_width_;
    options.entropy_bias = spec_.adversary.entropy_bias;
    options.quantile_mode = spec_.quantile_mode;
    accumulators_.reserve(num_classes_);
    for (std::size_t c = 0; c < num_classes_; ++c) {
      accumulators_.push_back(
          make_window_accumulator(spec_.adversary.feature, options));
    }
    training_features_.resize(num_classes_);
  }
  prepared_ = true;
}

void Detector::thin_reference(std::vector<double>& reference) const {
  thin_reference_sorted(reference, spec_.edf_max_reference);
}

void Detector::complete_window(std::size_t class_index, bool testing) {
  if (is_edf()) {
    if (testing) {
      classify_edf_window(class_index);
    } else {
      auto& reference = references_[class_index];
      auto& window = window_buffers_[class_index];
      reference.insert(reference.end(), window.begin(), window.end());
      // Progressive thinning bounds training memory at ~2x the reference
      // cap. Each thin resamples the sorted prefix, so the final reference
      // approximates (not reproduces) a full-sort thin — documented
      // tolerance of the streaming EDF detector.
      if (reference.size() >= 2 * spec_.edf_max_reference) {
        thin_reference(reference);
      }
    }
    window_buffers_[class_index].clear();
    return;
  }
  auto& acc = *accumulators_[class_index];
  const double feature = acc.value();
  if (testing) {
    confusion_.add(static_cast<ClassLabel>(class_index),
                   classifier_->classify(feature));
  } else {
    training_features_[class_index].push_back(feature);
  }
  acc.reset();
}

void Detector::classify_edf_window(std::size_t true_class) {
  // The buffer is cleared right after this call, so sort it in place — no
  // per-window allocation on the EDF hot path.
  auto& sorted = window_buffers_[true_class];
  std::sort(sorted.begin(), sorted.end());
  ClassLabel best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < references_.size(); ++c) {
    const double d = spec_.edf == EdfDistance::kKolmogorovSmirnov
                         ? stats::ks_distance_sorted(sorted, references_[c])
                         : stats::cvm_distance_sorted(sorted, references_[c]);
    if (d < best_d) {
      best_d = d;
      best = static_cast<ClassLabel>(c);
    }
  }
  confusion_.add(static_cast<ClassLabel>(true_class), best);
}

std::size_t Detector::window_fill(std::size_t class_index) const {
  if (is_cpd()) return 0;  // windowless: any chunk size is fine
  return is_edf() ? window_buffers_[class_index].size()
                  : accumulators_[class_index]->count();
}

void Detector::feed_chunk(std::size_t class_index,
                          std::span<const double> chunk, bool testing) {
  if (is_cpd()) {
    if (testing) {
      auto& state = cpd_states_[class_index];
      for (double x : chunk) cpd_model_->update(state, x);
    } else {
      // First-k raw-PIAT pool per class: the cap is a sample count, so the
      // pool (and the trained model) is batch-boundary independent.
      auto& pool = training_features_[class_index];
      const std::size_t cap = spec_.cpd->max_training_samples;
      for (double x : chunk) {
        if (pool.size() >= cap) break;
        pool.push_back(x);
      }
    }
    return;
  }
  // The caller guarantees the chunk fits inside the current window.
  const std::size_t n = spec_.adversary.window_size;
  if (is_edf()) {
    auto& window = window_buffers_[class_index];
    window.insert(window.end(), chunk.begin(), chunk.end());
    if (window.size() == n) complete_window(class_index, testing);
  } else {
    auto& acc = *accumulators_[class_index];
    acc.add(chunk);
    if (acc.count() == n) complete_window(class_index, testing);
  }
}

void Detector::feed(std::size_t class_index, std::span<const double> batch,
                    bool testing) {
  LINKPAD_EXPECTS(prepared_);
  LINKPAD_EXPECTS(class_index < num_classes_);
  const std::size_t n = spec_.adversary.window_size;
  // Walk the batch window by window: one (de)virtualized span add per
  // window chunk instead of a virtual call + boundary branch per sample.
  // Chunks additionally break at armed checkpoints so a snapshot lands
  // exactly at its prefix length.
  while (!batch.empty()) {
    std::size_t take = std::min(batch.size(), n - window_fill(class_index));
    if (testing && !checkpoints_.empty() &&
        next_checkpoint_[class_index] < checkpoints_.size()) {
      const std::size_t to_checkpoint =
          checkpoints_[next_checkpoint_[class_index]] -
          test_consumed_[class_index];
      take = std::min(take, to_checkpoint);
    }
    feed_chunk(class_index, batch.first(take), testing);
    batch = batch.subspan(take);
    if (testing && !checkpoints_.empty()) {
      test_consumed_[class_index] += take;
      auto& next = next_checkpoint_[class_index];
      // A window completing at the boundary is tallied above, BEFORE the
      // snapshot — exactly what a fresh bank stopped here would hold.
      while (next < checkpoints_.size() &&
             test_consumed_[class_index] == checkpoints_[next]) {
        if (is_cpd()) {
          cpd_rows_[class_index][next] = cpd_states_[class_index];
        } else {
          auto& row = checkpoint_rows_[class_index][next];
          row.resize(num_classes_);
          for (std::size_t j = 0; j < num_classes_; ++j) {
            row[j] = confusion_.count(static_cast<ClassLabel>(class_index),
                                      static_cast<ClassLabel>(j));
          }
        }
        ++next;
      }
    }
  }
}

void Detector::arm_checkpoints(std::vector<std::size_t> test_prefixes) {
  LINKPAD_EXPECTS(checkpoints_.empty());
  LINKPAD_EXPECTS(confusion_.total() == 0);
  // A CPD detector's run-time evidence lives in its stream states, not in
  // the confusion matrix — enforce the "before any consume_test" contract
  // there too.
  for (const auto& state : cpd_states_) LINKPAD_EXPECTS(state.n == 0);
  std::sort(test_prefixes.begin(), test_prefixes.end());
  test_prefixes.erase(
      std::unique(test_prefixes.begin(), test_prefixes.end()),
      test_prefixes.end());
  LINKPAD_EXPECTS(test_prefixes.empty() || test_prefixes.front() >= 1);
  checkpoints_ = std::move(test_prefixes);
  test_consumed_.assign(num_classes_, 0);
  next_checkpoint_.assign(num_classes_, 0);
  checkpoint_rows_.assign(
      num_classes_, std::vector<std::vector<std::uint64_t>>(checkpoints_.size()));
  if (is_cpd()) {
    cpd_rows_.assign(num_classes_,
                     std::vector<CpdClassState>(checkpoints_.size()));
  }
}

ConfusionMatrix Detector::confusion_at(std::size_t prefix) const {
  const auto it =
      std::find(checkpoints_.begin(), checkpoints_.end(), prefix);
  LINKPAD_EXPECTS(it != checkpoints_.end() &&
                  "confusion_at: prefix was not armed as a checkpoint");
  const auto idx =
      static_cast<std::size_t>(std::distance(checkpoints_.begin(), it));
  // A CPD detector never fills the confusion matrix; its prefix outcome is
  // cpd_outcome_at(). Return the (empty) matrix so bank-wide evaluate_at
  // keeps its detector-order shape.
  if (is_cpd()) return ConfusionMatrix(num_classes_);
  ConfusionMatrix out(num_classes_);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    const bool crossed = next_checkpoint_[c] > idx;
    for (std::size_t j = 0; j < num_classes_; ++j) {
      const std::uint64_t count =
          crossed ? checkpoint_rows_[c][idx][j]
                  : confusion_.count(static_cast<ClassLabel>(c),
                                     static_cast<ClassLabel>(j));
      out.add_count(static_cast<ClassLabel>(c), static_cast<ClassLabel>(j),
                    count);
    }
  }
  return out;
}

void Detector::consume_training(std::size_t class_index,
                                std::span<const double> batch) {
  LINKPAD_EXPECTS(!trained_);
  feed(class_index, batch, /*testing=*/false);
}

void Detector::train(const std::vector<double>& priors) {
  LINKPAD_EXPECTS(prepared_ && !trained_);
  LINKPAD_EXPECTS(priors.size() == num_classes_);
  priors_ = priors;
  if (is_cpd()) {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      LINKPAD_EXPECTS(training_features_[c].size() >= 2);
    }
    cpd_model_ = CpdModel::train(*spec_.cpd, training_features_);
    cpd_states_.assign(num_classes_, cpd_model_->initial_state());
    trained_ = true;
    return;
  }
  if (is_edf()) {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      window_buffers_[c].clear();  // drop the partial trailing window
      LINKPAD_EXPECTS(references_[c].size() >= 16);
      thin_reference(references_[c]);
    }
  } else {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      accumulators_[c]->reset();  // drop the partial trailing window
      LINKPAD_EXPECTS(training_features_[c].size() >= 2);
    }
    classifier_ =
        BayesClassifier::train(training_features_, priors_,
                               spec_.adversary.density, spec_.adversary.bandwidth,
                               spec_.adversary.fixed_bandwidth);
  }
  trained_ = true;
}

void Detector::consume_test(std::size_t true_class,
                            std::span<const double> batch) {
  LINKPAD_EXPECTS(trained_);
  feed(true_class, batch, /*testing=*/true);
}

double Detector::detection_rate() const {
  LINKPAD_EXPECTS(trained_);
  return confusion_.detection_rate(priors_);
}

const BayesClassifier& Detector::classifier() const {
  LINKPAD_EXPECTS(classifier_.has_value());
  return *classifier_;
}

const CpdModel& Detector::cpd_model() const {
  LINKPAD_EXPECTS(cpd_model_.has_value());
  return *cpd_model_;
}

CpdOutcome Detector::cpd_outcome() const {
  LINKPAD_EXPECTS(is_cpd() && trained_);
  CpdOutcome out;
  out.kind = spec_.cpd->kind;
  out.threshold = cpd_model_->threshold();
  out.ttd = cpd_model_->time_to_detection(cpd_states_);
  return out;
}

CpdOutcome Detector::cpd_outcome_at(std::size_t prefix) const {
  LINKPAD_EXPECTS(is_cpd() && trained_);
  const auto it = std::find(checkpoints_.begin(), checkpoints_.end(), prefix);
  LINKPAD_EXPECTS(it != checkpoints_.end() &&
                  "cpd_outcome_at: prefix was not armed as a checkpoint");
  const auto idx =
      static_cast<std::size_t>(std::distance(checkpoints_.begin(), it));
  // Same crossed-or-current rule as confusion_at: a class that has not
  // reached the prefix yet contributes everything it was given — exactly
  // what a fresh detector fed that short stream would hold.
  std::vector<CpdClassState> states(num_classes_);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    states[c] = next_checkpoint_[c] > idx ? cpd_rows_[c][idx] : cpd_states_[c];
  }
  CpdOutcome out;
  out.kind = spec_.cpd->kind;
  out.threshold = cpd_model_->threshold();
  out.ttd = cpd_model_->time_to_detection(states);
  return out;
}

// -------------------------------------------------------------- DetectorBank

DetectorBank::DetectorBank(std::vector<DetectorSpec> specs,
                           std::size_t num_classes)
    : num_classes_(num_classes) {
  LINKPAD_EXPECTS(!specs.empty());
  LINKPAD_EXPECTS(num_classes >= 2);
  detectors_.reserve(specs.size());
  for (auto& spec : specs) {
    detectors_.push_back(
        std::make_unique<Detector>(std::move(spec), num_classes));
  }
}

namespace {

std::vector<DetectorSpec> specs_for_features(
    const AdversaryConfig& base, const std::vector<FeatureKind>& features) {
  std::vector<DetectorSpec> specs;
  specs.reserve(features.size());
  for (const auto kind : features) {
    DetectorSpec spec;
    spec.adversary = base;
    spec.adversary.feature = kind;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

DetectorBank::DetectorBank(const AdversaryConfig& base,
                           const std::vector<FeatureKind>& features,
                           std::size_t num_classes)
    : DetectorBank(specs_for_features(base, features), num_classes) {}

DetectorBank::DetectorBank(const DetectorBank& other)
    : num_classes_(other.num_classes_),
      prepass_pooled_(other.prepass_pooled_),
      prepass_finished_(other.prepass_finished_) {
  detectors_.reserve(other.detectors_.size());
  for (const auto& detector : other.detectors_) {
    detectors_.push_back(std::make_unique<Detector>(*detector));
  }
}

DetectorBank& DetectorBank::operator=(const DetectorBank& other) {
  if (this == &other) return *this;
  DetectorBank copy(other);
  *this = std::move(copy);
  return *this;
}

void DetectorBank::arm_checkpoints(std::vector<std::size_t> test_prefixes) {
  for (auto& detector : detectors_) {
    detector->arm_checkpoints(test_prefixes);
  }
}

std::vector<ConfusionMatrix> DetectorBank::evaluate_at(
    std::size_t prefix) const {
  std::vector<ConfusionMatrix> out;
  out.reserve(detectors_.size());
  for (const auto& detector : detectors_) {
    out.push_back(detector->confusion_at(prefix));
  }
  return out;
}

bool DetectorBank::needs_prepass() const {
  if (prepass_finished_) return false;
  return std::any_of(detectors_.begin(), detectors_.end(),
                     [](const auto& d) { return d->needs_bin_width(); });
}

void DetectorBank::consume_prepass(std::span<const double> batch) {
  LINKPAD_EXPECTS(!prepass_finished_);
  for (double x : batch) prepass_pooled_.add(x);
}

void DetectorBank::finish_prepass() { finish_prepass(prepass_pooled_); }

void DetectorBank::finish_prepass(const stats::RunningStats& pooled) {
  LINKPAD_EXPECTS(!prepass_finished_);
  LINKPAD_EXPECTS(pooled.count() >= 2);
  for (auto& detector : detectors_) {
    if (!detector->needs_bin_width()) continue;
    // Scott's histogram rule at the detector's window size — the exact
    // selection Adversary::train performs on pooled training data.
    const double n = static_cast<double>(detector->spec().adversary.window_size);
    const double width = 3.49 * pooled.stddev() * std::pow(n, -1.0 / 3.0);
    LINKPAD_ENSURES(width > 0.0);
    detector->set_bin_width(width);
  }
  prepass_finished_ = true;
}

void DetectorBank::consume_training(std::size_t class_index,
                                    std::span<const double> batch) {
  LINKPAD_EXPECTS(!needs_prepass());
  for (auto& detector : detectors_) {
    detector->consume_training(class_index, batch);
  }
}

void DetectorBank::train(std::vector<double> priors) {
  if (priors.empty()) {
    priors.assign(num_classes_, 1.0 / static_cast<double>(num_classes_));
  }
  LINKPAD_EXPECTS(priors.size() == num_classes_);
  for (auto& detector : detectors_) detector->train(priors);
}

bool DetectorBank::trained() const {
  return std::all_of(detectors_.begin(), detectors_.end(),
                     [](const auto& d) { return d->trained(); });
}

void DetectorBank::consume_test(std::size_t true_class,
                                std::span<const double> batch) {
  for (auto& detector : detectors_) detector->consume_test(true_class, batch);
}

const Detector& DetectorBank::detector(std::size_t i) const {
  LINKPAD_EXPECTS(i < detectors_.size());
  return *detectors_[i];
}

}  // namespace linkpad::classify
