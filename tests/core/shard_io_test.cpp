// The shard serialization + merge wall (DESIGN.md §2.10):
//
//  1. Exact round-trip — serialize/parse of every aggregate is BITWISE
//     lossless: 200 seeded-random shards (full ExperimentResults, CPD rows,
//     confusion counts, optionals, ±inf/−0/subnormal doubles) survive a
//     text round trip with every bit intact, and re-serialization is
//     byte-identical (the format is canonical). Committed golden v3 texts
//     pin the bytes themselves.
//  2. N-shard bit-identity — shards {1, 2, 3, 8} × flows {1, 2, 33, 1000}
//     × grains: run_population_shard per shard, merge_shards once, and the
//     result (including the order-sensitive P² finalize) equals the
//     1-process PopulationEngine::run byte for byte at any thread count.
//  3. Durability — a worker killed mid-chunk leaves a torn tail; parse
//     tolerates it, resume recomputes only the missing chunks, and the
//     resumed shard file converges to the uninterrupted bytes exactly.
//  4. Self-checking parses and merges — missing chunks, foreign campaigns,
//     format version drift, out-of-domain values and every byte edit a
//     seeded fuzz makes are named shard_io: errors, never quietly wrong
//     numbers, contract violations or crashes.
#include "core/shard_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/population.hpp"
#include "core/scenarios.hpp"
#include "util/rng.hpp"

namespace linkpad::core {
namespace {

void expect_bits(double a, double b, const std::string& label) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << label << ": " << a << " vs " << b;
}

// ------------------------------------------------------------- hex doubles

TEST(HexDouble, SpecialValuesSurviveExactly) {
  const double specials[] = {
      0.0,
      -0.0,
      1.0,
      -1.0 / 3.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
  };
  for (const double x : specials) {
    const std::string hex = encode_double(x);
    ASSERT_EQ(hex.size(), 16u);
    expect_bits(decode_double(hex), x, "hex " + hex);
  }
  // ±inf are the min/max fold identities of a default PopulationPoint —
  // they MUST cross the wire intact for empty-fold edges to merge right.
  EXPECT_EQ(encode_double(std::numeric_limits<double>::infinity()),
            "7ff0000000000000");
  EXPECT_EQ(encode_double(-std::numeric_limits<double>::infinity()),
            "fff0000000000000");
}

TEST(HexDouble, RandomBitPatternsRoundTrip) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t bits = util::SplitMix64::mix(i);
    double x;
    std::memcpy(&x, &bits, sizeof x);
    const double back = decode_double(encode_double(x));
    std::uint64_t back_bits;
    std::memcpy(&back_bits, &back, sizeof back_bits);
    EXPECT_EQ(back_bits, bits) << "pattern " << i;
  }
}

TEST(HexDouble, MalformedInputThrows) {
  EXPECT_THROW((void)decode_double(""), std::invalid_argument);
  EXPECT_THROW((void)decode_double("3fe"), std::invalid_argument);
  EXPECT_THROW((void)decode_double("3fe000000000000g"), std::invalid_argument);
  EXPECT_THROW((void)decode_double("3FE0000000000000"), std::invalid_argument);
  EXPECT_THROW((void)decode_double("3fe00000000000000"), std::invalid_argument);
}

// ----------------------------------------- random aggregate property wall

double random_double(util::Rng& rng) {
  // Mostly ordinary magnitudes, with a deliberate seasoning of the edge
  // values a printf-based format would mangle first.
  const double roll = rng.uniform01();
  if (roll < 0.05) return std::numeric_limits<double>::infinity();
  if (roll < 0.10) return -std::numeric_limits<double>::infinity();
  if (roll < 0.14) return -0.0;
  if (roll < 0.18) return std::numeric_limits<double>::denorm_min();
  if (roll < 0.22) return rng.uniform(-1.0, 1.0) * 1e-300;
  return rng.uniform(-1e6, 1e6);
}

/// Chunk detection rates have a domain, [0, 1], which parse enforces: draw
/// them from it, endpoints and the smallest subnormal included.
double random_rate(util::Rng& rng) {
  const double roll = rng.uniform01();
  if (roll < 0.08) return 0.0;
  if (roll < 0.16) return 1.0;
  if (roll < 0.22) return std::numeric_limits<double>::denorm_min();
  return rng.uniform01();
}

std::size_t random_count(util::Rng& rng, double hi) {
  return static_cast<std::size_t>(rng.uniform(0.0, hi));
}

stats::ConfidenceInterval random_ci(util::Rng& rng) {
  stats::ConfidenceInterval ci;
  ci.point = random_double(rng);
  ci.lo = random_double(rng);
  ci.hi = random_double(rng);
  return ci;
}

classify::ConfusionMatrix random_confusion(util::Rng& rng) {
  const std::size_t classes = 2 + static_cast<std::size_t>(rng.uniform01() * 2);
  classify::ConfusionMatrix cm(classes);
  for (std::size_t t = 0; t < classes; ++t) {
    for (std::size_t p = 0; p < classes; ++p) {
      cm.add_count(static_cast<int>(t), static_cast<int>(p),
                   static_cast<std::uint64_t>(rng.uniform(0.0, 40.0)));
    }
  }
  return cm;
}

FeatureOutcome random_feature_outcome(util::Rng& rng) {
  FeatureOutcome f;
  f.feature = static_cast<classify::FeatureKind>(
      static_cast<int>(rng.uniform(0.0, 4.999)));
  f.detection_rate = random_double(rng);
  f.ci = random_ci(rng);
  f.confusion = random_confusion(rng);
  if (rng.uniform01() < 0.5) f.predicted = random_double(rng);
  return f;
}

classify::CpdOutcome random_cpd_outcome(util::Rng& rng, classify::CpdKind kind) {
  classify::CpdOutcome c;
  c.kind = kind;
  c.threshold = random_double(rng);
  c.ttd.detected = rng.uniform01() < 0.5;
  c.ttd.n_at_detection = random_count(rng, 5000.0);
  c.ttd.false_alarms = random_count(rng, 20.0);
  return c;
}

FlowCpd random_flow_cpd(util::Rng& rng) {
  FlowCpd c;
  c.detected = rng.uniform01() < 0.5;
  c.n_at_detection = random_count(rng, 5000.0);
  c.false_alarms = random_count(rng, 20.0);
  c.threshold = random_double(rng);
  return c;
}

ExperimentResult random_experiment_result(
    util::Rng& rng, std::size_t axis_points,
    const std::vector<classify::CpdKind>& cpd_kinds) {
  ExperimentResult r;
  r.detection_rate = random_double(rng);
  r.ci = random_ci(rng);
  r.confusion = random_confusion(rng);
  r.r_hat = random_double(rng);
  if (rng.uniform01() < 0.5) r.predicted = random_double(rng);
  r.piat_mean_low = random_double(rng);
  r.piat_mean_high = random_double(rng);
  r.piat_var_low = random_double(rng);
  r.piat_var_high = random_double(rng);
  const std::size_t features = 1 + static_cast<std::size_t>(rng.uniform01() * 2);
  for (std::size_t i = 0; i < features; ++i) {
    r.per_feature.push_back(random_feature_outcome(rng));
  }
  for (const auto kind : cpd_kinds) r.cpd.push_back(random_cpd_outcome(rng, kind));
  for (std::size_t i = 0; i < axis_points; ++i) {
    SampleSizePoint p;
    p.sample_size = 10 * (i + 1);
    p.train_windows = static_cast<std::size_t>(rng.uniform(1.0, 50.0));
    p.test_windows = static_cast<std::size_t>(rng.uniform(1.0, 50.0));
    p.r_hat = random_double(rng);
    for (std::size_t f = 0; f < features; ++f) {
      p.per_feature.push_back(random_feature_outcome(rng));
    }
    for (const auto kind : cpd_kinds) p.cpd.push_back(random_cpd_outcome(rng, kind));
    r.by_sample_size.push_back(std::move(p));
  }
  if (rng.uniform01() < 0.7) {
    for (int c = 0; c < 2; ++c) {
      StreamOverhead o;
      o.payload_packets = static_cast<std::uint64_t>(rng.uniform(0.0, 1e6));
      o.dummy_packets = static_cast<std::uint64_t>(rng.uniform(0.0, 1e6));
      o.suppressed_fires = static_cast<std::uint64_t>(rng.uniform(0.0, 1e4));
      o.wire_bps = random_double(rng);
      o.padding_bps = random_double(rng);
      o.dummy_fraction = random_double(rng);
      o.delay_mean = random_double(rng);
      o.delay_p50 = random_double(rng);
      o.delay_p95 = random_double(rng);
      o.delay_p99 = random_double(rng);
      r.overhead_per_class.push_back(o);
    }
  }
  return r;
}

FlowOverhead random_flow_overhead(util::Rng& rng) {
  FlowOverhead o;
  o.has_cost = rng.uniform01() < 0.8;
  o.padding_bps = random_double(rng);
  o.wire_bps = random_double(rng);
  o.dummy_fraction = random_double(rng);
  o.has_delay = rng.uniform01() < 0.8;
  o.delay_p95 = random_double(rng);
  return o;
}

/// A random but internally consistent shard: header + every chunk the
/// shard owns, each sized by the (flows, grain) partition, with 0-2
/// change-point detectors shared by every chunk and per-flow result.
PopulationShard random_shard(util::Rng& rng) {
  PopulationShard shard;
  shard.shard_count = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.999));
  shard.shard_index =
      static_cast<std::size_t>(rng.uniform01() * static_cast<double>(shard.shard_count));
  shard.flows = 1 + static_cast<std::size_t>(rng.uniform(0.0, 20.0));
  shard.grain = 1 + static_cast<std::size_t>(rng.uniform(0.0, 4.999));
  const std::size_t axis_points = 1 + static_cast<std::size_t>(rng.uniform01() * 2);
  for (std::size_t i = 0; i < axis_points; ++i) {
    shard.sample_sizes.push_back(10 * (i + 1));
  }
  shard.detection_threshold = rng.uniform(0.5, 1.0);
  shard.mean_interval = random_double(rng);
  shard.seed = util::SplitMix64::mix(static_cast<std::uint64_t>(rng.uniform(0.0, 1e9)));
  shard.keep_per_flow = rng.uniform01() < 0.5;
  if (rng.uniform01() < 0.5) {
    // Sampled campaign: a valid (m, round) pair — chunks then live in the
    // executed (m-flow) index space, not the deployed M.
    shard.sample_flows =
        1 + static_cast<std::size_t>(rng.uniform01() *
                                     static_cast<double>(shard.flows - 1));
    const std::size_t max_round =
        (shard.flows - shard.sample_flows) / shard.sample_flows;
    shard.sample_round = static_cast<std::size_t>(
        rng.uniform01() * static_cast<double>(max_round + 1));
    if (shard.sample_round > max_round) shard.sample_round = max_round;
  }
  std::vector<classify::CpdKind> cpd_kinds(random_count(rng, 2.999));
  for (auto& kind : cpd_kinds) {
    kind = rng.uniform01() < 0.5 ? classify::CpdKind::kCusum
                                 : classify::CpdKind::kAdaptiveEwma;
  }

  for (const std::size_t id : shard.owned_chunk_ids()) {
    ChunkAggregate chunk;
    chunk.first_flow = id * shard.grain;
    const std::size_t count =
        std::min(shard.executed_flows(), chunk.first_flow + shard.grain) -
        chunk.first_flow;
    chunk.rates.resize(axis_points);
    for (auto& row : chunk.rates) {
      for (std::size_t f = 0; f < count; ++f) row.push_back(random_rate(rng));
    }
    chunk.cpd_kinds = cpd_kinds;
    chunk.cpd.resize(cpd_kinds.size());
    for (auto& row : chunk.cpd) {
      for (std::size_t f = 0; f < count; ++f) row.push_back(random_flow_cpd(rng));
    }
    for (std::size_t f = 0; f < count; ++f) {
      chunk.overhead.push_back(random_flow_overhead(rng));
      if (shard.keep_per_flow) {
        chunk.per_flow.push_back(
            random_experiment_result(rng, axis_points, cpd_kinds));
      }
    }
    shard.chunks.push_back(std::move(chunk));
  }
  return shard;
}

void expect_same_overhead(const FlowOverhead& a, const FlowOverhead& b,
                          const std::string& label) {
  EXPECT_EQ(a.has_cost, b.has_cost) << label;
  EXPECT_EQ(a.has_delay, b.has_delay) << label;
  expect_bits(a.padding_bps, b.padding_bps, label + " padding_bps");
  expect_bits(a.wire_bps, b.wire_bps, label + " wire_bps");
  expect_bits(a.dummy_fraction, b.dummy_fraction, label + " dummy_fraction");
  expect_bits(a.delay_p95, b.delay_p95, label + " delay_p95");
}

void expect_same_cpd(const std::vector<classify::CpdOutcome>& a,
                     const std::vector<classify::CpdOutcome>& b,
                     const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].kind, b[j].kind) << label;
    expect_bits(a[j].threshold, b[j].threshold, label + " cpd threshold");
    EXPECT_EQ(a[j].ttd.detected, b[j].ttd.detected) << label;
    EXPECT_EQ(a[j].ttd.n_at_detection, b[j].ttd.n_at_detection) << label;
    EXPECT_EQ(a[j].ttd.false_alarms, b[j].ttd.false_alarms) << label;
  }
}

void expect_same_result_bits(const ExperimentResult& a,
                             const ExperimentResult& b,
                             const std::string& label) {
  expect_bits(a.detection_rate, b.detection_rate, label + " rate");
  expect_bits(a.ci.point, b.ci.point, label + " ci.point");
  expect_bits(a.ci.lo, b.ci.lo, label + " ci.lo");
  expect_bits(a.ci.hi, b.ci.hi, label + " ci.hi");
  expect_bits(a.r_hat, b.r_hat, label + " r_hat");
  ASSERT_EQ(a.predicted.has_value(), b.predicted.has_value()) << label;
  if (a.predicted) expect_bits(*a.predicted, *b.predicted, label + " predicted");
  expect_bits(a.piat_mean_low, b.piat_mean_low, label + " piat_mean_low");
  expect_bits(a.piat_var_high, b.piat_var_high, label + " piat_var_high");
  ASSERT_EQ(a.confusion.num_classes(), b.confusion.num_classes()) << label;
  EXPECT_EQ(a.confusion.total(), b.confusion.total()) << label;
  for (std::size_t t = 0; t < a.confusion.num_classes(); ++t) {
    for (std::size_t p = 0; p < a.confusion.num_classes(); ++p) {
      EXPECT_EQ(a.confusion.count(static_cast<int>(t), static_cast<int>(p)),
                b.confusion.count(static_cast<int>(t), static_cast<int>(p)))
          << label;
    }
  }
  ASSERT_EQ(a.per_feature.size(), b.per_feature.size()) << label;
  for (std::size_t i = 0; i < a.per_feature.size(); ++i) {
    EXPECT_EQ(a.per_feature[i].feature, b.per_feature[i].feature) << label;
    expect_bits(a.per_feature[i].detection_rate,
                b.per_feature[i].detection_rate, label + " feature rate");
  }
  expect_same_cpd(a.cpd, b.cpd, label);
  ASSERT_EQ(a.by_sample_size.size(), b.by_sample_size.size()) << label;
  for (std::size_t i = 0; i < a.by_sample_size.size(); ++i) {
    EXPECT_EQ(a.by_sample_size[i].sample_size, b.by_sample_size[i].sample_size);
    EXPECT_EQ(a.by_sample_size[i].train_windows,
              b.by_sample_size[i].train_windows);
    expect_bits(a.by_sample_size[i].r_hat, b.by_sample_size[i].r_hat,
                label + " point r_hat");
    expect_same_cpd(a.by_sample_size[i].cpd, b.by_sample_size[i].cpd,
                    label + " point");
  }
  ASSERT_EQ(a.overhead_per_class.size(), b.overhead_per_class.size()) << label;
  for (std::size_t i = 0; i < a.overhead_per_class.size(); ++i) {
    EXPECT_EQ(a.overhead_per_class[i].payload_packets,
              b.overhead_per_class[i].payload_packets)
        << label;
    expect_bits(a.overhead_per_class[i].delay_p99,
                b.overhead_per_class[i].delay_p99, label + " delay_p99");
  }
}

TEST(ShardRoundTrip, TwoHundredRandomAggregatesSurviveBitwise) {
  std::size_t cpd_rows = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(9000 + seed);
    const PopulationShard original = random_shard(rng);
    const std::string text = serialize_shard(original);
    const PopulationShard back = parse_shard(text);

    const std::string tag = "seed " + std::to_string(seed);
    EXPECT_EQ(back.version, original.version) << tag;
    EXPECT_EQ(back.shard_index, original.shard_index) << tag;
    EXPECT_EQ(back.shard_count, original.shard_count) << tag;
    EXPECT_EQ(back.flows, original.flows) << tag;
    EXPECT_EQ(back.grain, original.grain) << tag;
    EXPECT_EQ(back.sample_flows, original.sample_flows) << tag;
    EXPECT_EQ(back.sample_round, original.sample_round) << tag;
    EXPECT_EQ(back.sample_sizes, original.sample_sizes) << tag;
    expect_bits(back.detection_threshold, original.detection_threshold,
                tag + " threshold");
    expect_bits(back.mean_interval, original.mean_interval, tag + " interval");
    EXPECT_EQ(back.seed, original.seed) << tag;
    EXPECT_EQ(back.keep_per_flow, original.keep_per_flow) << tag;

    ASSERT_EQ(back.chunks.size(), original.chunks.size()) << tag;
    for (std::size_t c = 0; c < back.chunks.size(); ++c) {
      const auto& oc = original.chunks[c];
      const auto& bc = back.chunks[c];
      const std::string ctag = tag + " chunk " + std::to_string(c);
      EXPECT_EQ(bc.first_flow, oc.first_flow) << ctag;
      ASSERT_EQ(bc.rates.size(), oc.rates.size()) << ctag;
      for (std::size_t i = 0; i < oc.rates.size(); ++i) {
        ASSERT_EQ(bc.rates[i].size(), oc.rates[i].size()) << ctag;
        for (std::size_t j = 0; j < oc.rates[i].size(); ++j) {
          expect_bits(bc.rates[i][j], oc.rates[i][j], ctag + " rate");
        }
      }
      ASSERT_EQ(bc.overhead.size(), oc.overhead.size()) << ctag;
      for (std::size_t i = 0; i < oc.overhead.size(); ++i) {
        expect_same_overhead(bc.overhead[i], oc.overhead[i], ctag);
      }
      EXPECT_EQ(bc.cpd_kinds, oc.cpd_kinds) << ctag;
      ASSERT_EQ(bc.cpd.size(), oc.cpd.size()) << ctag;
      for (std::size_t j = 0; j < oc.cpd.size(); ++j) {
        ASSERT_EQ(bc.cpd[j].size(), oc.cpd[j].size()) << ctag;
        for (std::size_t f = 0; f < oc.cpd[j].size(); ++f) {
          const FlowCpd& x = bc.cpd[j][f];
          const FlowCpd& y = oc.cpd[j][f];
          EXPECT_EQ(x.detected, y.detected) << ctag;
          EXPECT_EQ(x.n_at_detection, y.n_at_detection) << ctag;
          EXPECT_EQ(x.false_alarms, y.false_alarms) << ctag;
          expect_bits(x.threshold, y.threshold, ctag + " cpd threshold");
          ++cpd_rows;
        }
      }
      ASSERT_EQ(bc.per_flow.size(), oc.per_flow.size()) << ctag;
      for (std::size_t i = 0; i < oc.per_flow.size(); ++i) {
        expect_same_result_bits(bc.per_flow[i], oc.per_flow[i], ctag);
      }
    }

    // Canonical bytes: parse∘serialize is the identity on the TEXT too.
    EXPECT_EQ(serialize_shard(back), text) << tag;
  }
  EXPECT_GT(cpd_rows, 100u);  // the v3 change-point fields are exercised
}

// ------------------------------------------------------------ golden v3 text

// Two v3 shard files written by the pre-field-list codec. A: a sampled
// header, keep_per_flow on, one CUSUM detector, `predicted` both set and
// null. B: an exhaustive header, keep_per_flow off, two detectors. Any
// change to these bytes is a format change and needs a version bump.
const std::string kGoldenSampled =
    R"({"linkpad_shard":3,"shard_index":0,"shard_count":2,"flows":7,"grain")"
    R"(:2,"sample_flows":3,"sample_round":1,"sample_sizes":[40],"detection_)"
    R"(threshold":"3fe8000000000000","mean_interval":"3f847ae147ae147b","se)"
    R"(ed":20030324,"keep_per_flow":true})"
    "\n"
    R"({"chunk":0,"first_flow":0,"rates":[["3ff0000000000000","000000000000)"
    R"(0000"]],"overhead":[{"has_cost":true,"padding_bps":"41224f8000000000)"
    R"(","wire_bps":"41286a0000000000","dummy_fraction":"3fe8000000000000",)"
    R"("has_delay":true,"delay_p95":"3f8374bc6a7ef9db"},{"has_cost":false,")"
    R"(padding_bps":"0000000000000000","wire_bps":"0000000000000000","dummy)"
    R"(_fraction":"8000000000000000","has_delay":false,"delay_p95":"fff0000)"
    R"(000000000"}],"cpd_kinds":[0],"cpd":[[{"detected":true,"n_at_detectio)"
    R"(n":120,"false_alarms":2,"threshold":"4012000000000000"},{"detected":)"
    R"(false,"n_at_detection":0,"false_alarms":0,"threshold":"4011000000000)"
    R"(000"}]],"per_flow":[{"rate":"3ff0000000000000","ci":{"estimate":"3ff)"
    R"(0000000000000","lo":"8000000000000000","hi":"7ff0000000000000"},"con)"
    R"(fusion":{"classes":3,"counts":[4,0,0,0,0,0,0,3,0]},"r_hat":"40040000)"
    R"(00000000","predicted":"3fec000000000000","piat":["3f847ae147ae147b",)"
    R"("3f847ae147ae147b","0000000000000001","fff0000000000000"],"per_featu)"
    R"(re":[{"feature":1,"rate":"3ff0000000000000","ci":{"estimate":"3ff000)"
    R"(0000000000","lo":"3fd0000000000000","hi":"3ff0000000000000"},"confus)"
    R"(ion":{"classes":2,"counts":[7,1,0,8]},"predicted":"3fea000000000000")"
    R"(}],"cpd":[{"kind":0,"threshold":"4012000000000000","detected":true,")"
    R"(n_at_detection":120,"false_alarms":2}],"by_sample_size":[{"n":40,"tr)"
    R"(ain":12,"test":6,"r_hat":"4004000000000000","per_feature":[{"feature)"
    R"(":1,"rate":"3ff0000000000000","ci":{"estimate":"3ff0000000000000","l)"
    R"(o":"3fd0000000000000","hi":"3ff0000000000000"},"confusion":{"classes)"
    R"(":2,"counts":[7,1,0,8]},"predicted":null}],"cpd":[{"kind":0,"thresho)"
    R"(ld":"4012000000000000","detected":false,"n_at_detection":0,"false_al)"
    R"(arms":2}]}],"overhead_per_class":[{"payload":400,"dummy":1200,"suppr)"
    R"(essed":3,"wire_bps":"41286a0000000000","padding_bps":"41224f80000000)"
    R"(00","dummy_fraction":"3fe8000000000000","delay_mean":"3f60624dd2f1a9)"
    R"(fc","delay_p50":"3f589374bc6a7efa","delay_p95":"3f8374bc6a7ef9db","d)"
    R"(elay_p99":"3f8999999999999a"}]},{"rate":"0000000000000000","ci":{"es)"
    R"(timate":"0000000000000000","lo":"8000000000000000","hi":"7ff00000000)"
    R"(00000"},"confusion":{"classes":3,"counts":[4,0,0,0,0,0,0,3,0]},"r_ha)"
    R"(t":"4004000000000000","predicted":null,"piat":["3f847ae147ae147b","3)"
    R"(f847ae147ae147b","0000000000000001","fff0000000000000"],"per_feature)"
    R"(":[{"feature":1,"rate":"0000000000000000","ci":{"estimate":"00000000)"
    R"(00000000","lo":"3fd0000000000000","hi":"3ff0000000000000"},"confusio)"
    R"(n":{"classes":2,"counts":[7,1,0,8]},"predicted":null}],"cpd":[{"kind)"
    R"(":0,"threshold":"4012000000000000","detected":true,"n_at_detection":)"
    R"(120,"false_alarms":2}],"by_sample_size":[{"n":40,"train":12,"test":6)"
    R"(,"r_hat":"4004000000000000","per_feature":[{"feature":1,"rate":"0000)"
    R"(000000000000","ci":{"estimate":"0000000000000000","lo":"3fd000000000)"
    R"(0000","hi":"3ff0000000000000"},"confusion":{"classes":2,"counts":[7,)"
    R"(1,0,8]},"predicted":"3fea000000000000"}],"cpd":[{"kind":0,"threshold)"
    R"(":"4012000000000000","detected":false,"n_at_detection":0,"false_alar)"
    R"(ms":2}]}],"overhead_per_class":[{"payload":400,"dummy":1200,"suppres)"
    R"(sed":3,"wire_bps":"41286a0000000000","padding_bps":"41224f8000000000)"
    R"(","dummy_fraction":"3fe8000000000000","delay_mean":"3f60624dd2f1a9fc)"
    R"(","delay_p50":"3f589374bc6a7efa","delay_p95":"3f8374bc6a7ef9db","del)"
    R"(ay_p99":"3f8999999999999a"}]}]})"
    "\n";

const std::string kGoldenAggregateOnly =
    R"({"linkpad_shard":3,"shard_index":1,"shard_count":2,"flows":5,"grain")"
    R"(:2,"sample_flows":0,"sample_round":0,"sample_sizes":[20,40],"detecti)"
    R"(on_threshold":"3fe8000000000000","mean_interval":"3f847ae147ae147b",)"
    R"("seed":7,"keep_per_flow":false})"
    "\n"
    R"({"chunk":1,"first_flow":2,"rates":[["3fe0000000000000","000000000000)"
    R"(0001"],["3fe4000000000000","3ff0000000000000"]],"overhead":[{"has_co)"
    R"(st":true,"padding_bps":"41224f8000000000","wire_bps":"41286a00000000)"
    R"(00","dummy_fraction":"3fe8000000000000","has_delay":true,"delay_p95")"
    R"(:"3f8374bc6a7ef9db"},{"has_cost":true,"padding_bps":"7ff000000000000)"
    R"(0","wire_bps":"41286a0000000000","dummy_fraction":"3fe8000000000000")"
    R"(,"has_delay":true,"delay_p95":"3f826e978d4fdf3b"}],"cpd_kinds":[0,1])"
    R"(,"cpd":[[{"detected":true,"n_at_detection":88,"false_alarms":0,"thre)"
    R"(shold":"4014000000000000"},{"detected":true,"n_at_detection":140,"fa)"
    R"(lse_alarms":1,"threshold":"4016000000000000"}],[{"detected":false,"n)"
    R"(_at_detection":0,"false_alarms":3,"threshold":"4000000000000000"},{")"
    R"(detected":false,"n_at_detection":0,"false_alarms":0,"threshold":"800)"
    R"(0000000000000"}]],"per_flow":[]})"
    "\n";

TEST(ShardGolden, V3TextsParseAndReserializeByteForByte) {
  for (const std::string* golden : {&kGoldenSampled, &kGoldenAggregateOnly}) {
    EXPECT_EQ(serialize_shard(parse_shard(*golden)), *golden);
  }
  const PopulationShard a = parse_shard(kGoldenSampled);
  EXPECT_EQ(a.sample_flows, 3u);
  EXPECT_EQ(a.sample_round, 1u);
  ASSERT_EQ(a.chunks.size(), 1u);
  ASSERT_EQ(a.chunks[0].per_flow.size(), 2u);
  EXPECT_TRUE(a.chunks[0].per_flow[0].predicted.has_value());
  EXPECT_FALSE(a.chunks[0].per_flow[1].predicted.has_value());
  EXPECT_EQ(a.chunks[0].per_flow[0].confusion.num_classes(), 3u);
  ASSERT_EQ(a.chunks[0].cpd.size(), 1u);
  EXPECT_EQ(a.chunks[0].cpd[0][0].n_at_detection, 120u);

  const PopulationShard b = parse_shard(kGoldenAggregateOnly);
  EXPECT_FALSE(b.keep_per_flow);
  ASSERT_EQ(b.chunks.size(), 1u);
  EXPECT_TRUE(b.chunks[0].per_flow.empty());
  EXPECT_EQ(b.chunks[0].cpd_kinds,
            (std::vector<classify::CpdKind>{classify::CpdKind::kCusum,
                                            classify::CpdKind::kAdaptiveEwma}));
  expect_bits(b.chunks[0].rates[0][1], std::numeric_limits<double>::denorm_min(),
              "subnormal rate");
  expect_bits(b.chunks[0].cpd[1][1].threshold, -0.0, "negative zero");
}

// ------------------------------------------------------ corrupt-input errors

/// `text` with the first `from` replaced by `to` (which must occur).
std::string edited(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// Parsing `text` throws a std::invalid_argument naming shard_io and
/// mentioning `needle`.
void expect_named_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_shard(text);
    ADD_FAILURE() << "expected std::invalid_argument mentioning " << needle;
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_EQ(what.rfind("shard_io:", 0), 0u) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(ShardParse, OneClassConfusionIsANamedError) {
  // A 1-byte edit: the matrix constructor would reject 1 class with a
  // ContractViolation, so parse must refuse it first.
  expect_named_parse_error(
      edited(kGoldenSampled, R"("classes":2,)", R"("classes":1,)"), "confusion");
}

TEST(ShardParse, ConfusionClassCountWhoseSquareWrapsIsANamedError) {
  // 2^32 classes: 2^64 wraps to 0, the length of the empty counts array.
  expect_named_parse_error(
      edited(kGoldenSampled, R"({"classes":2,"counts":[7,1,0,8]})",
             R"({"classes":4294967296,"counts":[]})"),
      "confusion");
}

TEST(ShardParse, RateOutsideTheUnitIntervalIsANamedError) {
  // 0.5 (3fe0…) with one hex digit flipped is about 1e77.
  expect_named_parse_error(
      edited(kGoldenAggregateOnly, R"("rates":[["3fe0)", R"("rates":[["6fe0)"),
      "[0, 1]");
  expect_named_parse_error(  // NaN
      edited(kGoldenAggregateOnly, R"("rates":[["3fe0000000000000")",
             R"("rates":[["7ff8000000000000")"),
      "[0, 1]");
}

TEST(ShardParse, KeysMustFollowTheFieldList) {
  // Missing, reordered, duplicated and extra keys, and whitespace.
  expect_named_parse_error(edited(kGoldenAggregateOnly, R"("seed":7,)", ""), "seed");
  expect_named_parse_error(
      edited(kGoldenAggregateOnly, R"("flows":5,"grain":2,)", R"("grain":2,"flows":5,)"),
      "flows");
  expect_named_parse_error(
      edited(kGoldenAggregateOnly, R"("seed":7,)", R"("seed":7,"seed":7,)"),
      "keep_per_flow");
  expect_named_parse_error(
      edited(kGoldenAggregateOnly, R"("keep_per_flow":false})",
             R"("keep_per_flow":false,"extra":1})"),
      "'}'");
  expect_named_parse_error(edited(kGoldenAggregateOnly, R"("seed":7)", R"("seed": 7)"),
                           "unsigned integer");
}

// ------------------------------------------------- N-shard bit-identity

/// Cheap per-flow experiment (the bench workload): the wall measures the
/// SHARD machinery, not classifier arithmetic.
PopulationSpec shard_spec(std::size_t flows, std::uint64_t seed = 20030324) {
  PopulationSpec spec;
  spec.experiment.scenario = lab_cross_traffic(make_cit(), 0.1);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.experiment.plan.adversary.window_size = 40;
  spec.experiment.sample_size_axis = {20, 40};
  spec.experiment.plan.train_windows = 2;
  spec.experiment.plan.test_windows = 2;
  spec.flows = flows;
  spec.seed = seed;
  return spec;
}

void expect_same_population(const PopulationResult& a, const PopulationResult& b,
                            const std::string& label) {
  // The JSON rendering covers every aggregate bit (hex doubles) plus the
  // per-flow primary rates; byte equality IS the bit-identity check.
  EXPECT_EQ(population_result_json(a), population_result_json(b)) << label;
  ASSERT_EQ(a.per_flow.size(), b.per_flow.size()) << label;
  for (std::size_t f = 0; f < a.per_flow.size(); ++f) {
    expect_same_result_bits(a.per_flow[f], b.per_flow[f],
                            label + " flow " + std::to_string(f));
  }
}

std::vector<PopulationShard> run_all_shards(const PopulationSpec& spec,
                                            std::size_t shard_count,
                                            std::size_t grain,
                                            std::size_t threads) {
  std::vector<PopulationShard> shards;
  for (std::size_t i = 0; i < shard_count; ++i) {
    SweepOptions options;
    options.threads = threads;
    options.grain = grain;
    options.shard_index = i;
    options.shard_count = shard_count;
    shards.push_back(run_population_shard(spec, sim_backend(), options));
  }
  return shards;
}

TEST(ShardMerge, BitIdenticalToSingleProcessAcrossShardAndFlowCounts) {
  for (const std::size_t flows : {std::size_t{1}, std::size_t{2},
                                  std::size_t{33}}) {
    const auto spec = shard_spec(flows);
    SweepOptions reference_options;
    reference_options.threads = 1;
    const auto reference =
        PopulationEngine(sim_backend(), reference_options).run(spec);

    for (const std::size_t shard_count :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                      std::size_t{5}}) {
        // The file round trip is part of the wall: serialize + parse every
        // shard before merging, exactly what separate processes would do.
        auto shards = run_all_shards(spec, shard_count, grain, 2);
        std::vector<PopulationShard> parsed;
        for (const auto& shard : shards) {
          parsed.push_back(parse_shard(serialize_shard(shard)));
        }
        const auto merged = merge_shards(std::move(parsed));
        expect_same_population(reference, merged,
                               "flows " + std::to_string(flows) + " shards " +
                                   std::to_string(shard_count) + " grain " +
                                   std::to_string(grain));
      }
    }
  }
}

TEST(ShardMerge, ThousandFlowWallAtEightShards) {
  // The large rung of the wall: M = 1000 split 8 ways (aggregate-only, so
  // the test exercises the keep_per_flow = false serialization path too).
  auto spec = shard_spec(1000);
  spec.keep_per_flow = false;
  SweepOptions reference_options;
  reference_options.threads = 0;  // shared pool, whatever width
  const auto reference =
      PopulationEngine(sim_backend(), reference_options).run(spec);

  auto shards = run_all_shards(spec, 8, 0, 0);
  std::vector<PopulationShard> parsed;
  for (const auto& shard : shards) {
    parsed.push_back(parse_shard(serialize_shard(shard)));
  }
  const auto merged = merge_shards(std::move(parsed));
  expect_same_population(reference, merged, "1000x8");
  EXPECT_EQ(merged.flow_count, 1000u);
  EXPECT_TRUE(merged.per_flow.empty());
}

// ------------------------------------------------------ durability / resume

TEST(ShardResume, TruncatedCheckpointConvergesToUninterruptedBytes) {
  const std::string path = testing::TempDir() + "linkpad_resume_test.shard";
  const auto spec = shard_spec(10, 31);

  SweepOptions options;
  options.threads = 1;
  options.grain = 1;  // 10 chunks -> shard 0/2 owns 5
  options.shard_index = 0;
  options.shard_count = 2;
  ShardRunOptions durability;
  durability.checkpoint_path = path;

  (void)run_population_shard(spec, sim_backend(), options, durability);
  std::string uninterrupted;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    uninterrupted = buf.str();
  }
  ASSERT_FALSE(uninterrupted.empty());

  // Kill mid-append: keep the header and a torn prefix that ends inside a
  // chunk line (no trailing newline), as a SIGKILL during a write would.
  const std::size_t cut = uninterrupted.size() * 3 / 5;
  ASSERT_NE(uninterrupted[cut], '\n');
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(uninterrupted.data(), static_cast<std::streamsize>(cut));
  }

  // The torn file still parses (tolerated tail) with FEWER chunks...
  const PopulationShard torn = read_shard_file(path, /*tolerate_partial_tail=*/true);
  EXPECT_LT(torn.chunks.size(), 5u);
  // ...and strict parsing refuses it.
  EXPECT_THROW((void)read_shard_file(path), std::invalid_argument);

  // Resume recomputes only what is missing and converges exactly.
  durability.resume = true;
  const PopulationShard resumed =
      run_population_shard(spec, sim_backend(), options, durability);
  EXPECT_EQ(resumed.chunks.size(), 5u);
  std::string after;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    after = buf.str();
  }
  EXPECT_EQ(after, uninterrupted);
  EXPECT_EQ(serialize_shard(resumed), uninterrupted);
  std::remove(path.c_str());
}

TEST(ShardResume, CheckpointRefusesForeignCampaign) {
  const std::string path = testing::TempDir() + "linkpad_foreign_test.shard";
  SweepOptions options;
  options.threads = 1;
  options.shard_index = 0;
  options.shard_count = 2;
  ShardRunOptions durability;
  durability.checkpoint_path = path;
  (void)run_population_shard(shard_spec(6, 1), sim_backend(), options, durability);

  durability.resume = true;
  EXPECT_THROW((void)run_population_shard(shard_spec(6, 2), sim_backend(),
                                          options, durability),
               std::invalid_argument);
  std::remove(path.c_str());
}

// ------------------------------------------------------- loud merge errors

TEST(ShardMerge, MissingShardIsALoudError) {
  const auto spec = shard_spec(9, 5);
  auto shards = run_all_shards(spec, 3, 1, 1);
  shards.erase(shards.begin() + 1);
  try {
    (void)merge_shards(std::move(shards));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("missing or incomplete"),
              std::string::npos)
        << err.what();
  }
}

TEST(ShardMerge, ForeignCampaignIsALoudError) {
  auto a = run_all_shards(shard_spec(4, 1), 2, 1, 1);
  auto b = run_all_shards(shard_spec(4, 2), 2, 1, 1);
  std::vector<PopulationShard> mixed;
  mixed.push_back(std::move(a[0]));
  mixed.push_back(std::move(b[1]));
  EXPECT_THROW((void)merge_shards(std::move(mixed)), std::invalid_argument);
}

TEST(ShardParse, FormatVersionDriftIsALoudError) {
  const auto shards = run_all_shards(shard_spec(4, 3), 1, 1, 1);
  std::string text = serialize_shard(shards[0]);
  const std::string current =
      "{\"linkpad_shard\":" + std::to_string(kShardFormatVersion);
  ASSERT_EQ(text.rfind(current, 0), 0u);
  text.replace(0, current.size(),
               "{\"linkpad_shard\":" +
                   std::to_string(kShardFormatVersion + 1));
  expect_named_parse_error(text, "version");
  // A newer header with a key this reader does not know still fails on
  // its version, not on the key.
  expect_named_parse_error(
      edited(text, R"("keep_per_flow":true})", R"("keep_per_flow":true,"hash":"0"})"),
      "version");
}

TEST(ShardCheckpoint, BytesIndependentOfThreadCount) {
  // The checkpoint file is a pure function of (spec, shard coordinates):
  // thread count must not leak into the bytes.
  const auto spec = shard_spec(12, 9);
  std::vector<std::string> texts;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SweepOptions options;
    options.threads = threads;
    options.grain = 2;
    options.shard_index = 1;
    options.shard_count = 2;
    texts.push_back(
        serialize_shard(run_population_shard(spec, sim_backend(), options)));
  }
  EXPECT_EQ(texts[0], texts[1]);
}

// ---------------------------------------------- change-point detector layout

/// shard_spec plus one fixed-threshold change-point detector of `kind`.
PopulationSpec cpd_shard_spec(std::size_t flows, classify::CpdKind kind) {
  PopulationSpec spec = shard_spec(flows);
  classify::CpdConfig config;
  config.kind = kind;
  spec.experiment.plan.cpd_detectors.push_back(config);
  return spec;
}

TEST(ShardParse, ChunksDisagreeingOnCpdKindsIsANamedError) {
  auto shard = run_all_shards(cpd_shard_spec(4, classify::CpdKind::kCusum), 1, 1, 1)[0];
  ASSERT_EQ(shard.chunks.size(), 4u);
  shard.chunks[2].cpd_kinds = {classify::CpdKind::kAdaptiveEwma};
  expect_named_parse_error(serialize_shard(shard), "cpd_kinds");
}

TEST(ShardParse, ChunkLinesOutOfOrderOrRepeatedAreNamedErrors) {
  const std::string text = serialize_shard(run_all_shards(shard_spec(3), 1, 1, 1)[0]);
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header + chunks 0, 1, 2
  const auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const auto& part : parts) out += part + "\n";
    return out;
  };
  expect_named_parse_error(join({lines[0], lines[2], lines[1], lines[3]}), "order");
  expect_named_parse_error(join({lines[0], lines[1], lines[1], lines[2]}), "duplicated");
}

TEST(ShardMerge, CampaignsDifferingOnlyInCpdDetectorsAreANamedError) {
  // same_campaign compares headers, and the detector layout lives in the
  // chunks — merge must still refuse instead of tripping a precondition.
  auto cusum = run_all_shards(cpd_shard_spec(4, classify::CpdKind::kCusum), 2, 1, 1);
  auto ewma =
      run_all_shards(cpd_shard_spec(4, classify::CpdKind::kAdaptiveEwma), 2, 1, 1);
  ASSERT_TRUE(cusum[0].same_campaign(ewma[1]));
  std::vector<PopulationShard> mixed;
  mixed.push_back(parse_shard(serialize_shard(cusum[0])));
  mixed.push_back(parse_shard(serialize_shard(ewma[1])));
  try {
    (void)merge_shards(std::move(mixed));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("cpd_kinds"), std::string::npos)
        << err.what();
  }
}

// ------------------------------------------------------------ mutation fuzz

TEST(ShardFuzz, ByteEditsEndInNamedErrorsOrInRangeMerges) {
  // Seeded 1–3-byte edits (replace, insert, delete) of one ~10 KB shard of
  // a 3-shard campaign. Each mutant must either parse or throw a shard_io:
  // std::invalid_argument; a mutant that parses must merge with its
  // siblings into in-range rates or fail with a shard_io: error — never a
  // ContractViolation, a crash, or a rate like 1e77.
  const auto spec = cpd_shard_spec(12, classify::CpdKind::kCusum);
  const auto shards = run_all_shards(spec, 3, 2, 1);
  const std::string text = serialize_shard(shards[1]);
  ASSERT_GT(text.size(), 8000u);
  ASSERT_LT(text.size(), 16000u);
  const std::vector<PopulationShard> siblings = {shards[0], shards[2]};
  constexpr std::string_view kAlphabet = "0123456789abcdef\"{}[],:-.etnulx \n";

  const auto named = [](const std::invalid_argument& err) {
    return std::string_view(err.what()).starts_with("shard_io:");
  };
  util::Rng rng(20030324);
  std::size_t parsed = 0, merged = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutant = text;
    const int edits = 1 + static_cast<int>(rng.uniform(0.0, 2.999));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform01() * static_cast<double>(mutant.size()));
      const char byte = kAlphabet[static_cast<std::size_t>(
          rng.uniform01() * static_cast<double>(kAlphabet.size()))];
      const double op = rng.uniform01();
      if (op < 0.3 && std::isxdigit(static_cast<unsigned char>(mutant[at])) != 0) {
        // A digit flip inside a value: the edit most likely to parse.
        mutant[at] = kAlphabet[static_cast<std::size_t>(rng.uniform01() * 16.0)];
      } else if (op < 0.6) {
        mutant[at] = byte;
      } else if (op < 0.8) {
        mutant.insert(at, 1, byte);
      } else {
        mutant.erase(at, 1);
      }
    }
    const std::string tag = "trial " + std::to_string(trial);
    PopulationShard shard;
    try {
      shard = parse_shard(mutant);
    } catch (const std::invalid_argument& err) {
      EXPECT_TRUE(named(err)) << tag << ": " << err.what();
      continue;
    }
    ++parsed;
    std::vector<PopulationShard> all = siblings;
    all.push_back(std::move(shard));
    PopulationResult result;
    try {
      result = merge_shards(std::move(all));
    } catch (const std::invalid_argument& err) {
      EXPECT_TRUE(named(err)) << tag << ": " << err.what();
      continue;
    }
    ++merged;
    for (const PopulationPoint& p : result.by_sample_size) {
      for (const double rate : {p.detected_fraction, p.mean_rate, p.min_rate,
                                p.max_rate, p.quantiles.p05, p.quantiles.median,
                                p.quantiles.p95}) {
        EXPECT_TRUE(rate >= 0.0 && rate <= 1.0) << tag << ": rate " << rate;
      }
    }
  }
  // The fuzz reaches both sides: edits the format rejects, and edits it
  // accepts (a hex digit of an unconstrained double) that must merge.
  EXPECT_GT(parsed, 50u);
  EXPECT_GT(merged, 50u);
  EXPECT_LT(parsed, 2900u);
}

}  // namespace
}  // namespace linkpad::core
