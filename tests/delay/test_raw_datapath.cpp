// Property tests of the raw-integer delay datapaths against their fx::Value
// oracles. The TABLEFREE and TABLESTEER block paths resolve their formats
// once, at construction, into shifts, clamp bounds and half-up constants
// (fx::Requantize / fx::RoundShift) and then run on plain int64_t; the
// per-point compute() paths keep the fx::Value emulation. Here both sides
// see the same seeded random inputs — segment edges, wrong segments,
// saturating formats, negative sums — and must agree bit for bit. Each
// range fact the raw path relies on instead of a per-delay check is a
// construction-time proof, and construction must reject a format set that
// would break it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/fixed_point.h"
#include "common/prng.h"
#include "delay/pwl_sqrt.h"
#include "delay/tablefree.h"
#include "delay/tablesteer.h"
#include "imaging/scan_order.h"
#include "imaging/system_config.h"

namespace us3d::delay {
namespace {

std::int64_t random_raw(SplitMix64& rng, const fx::Format& f) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(f.max_raw() - f.min_raw()) + 1;
  return f.min_raw() + static_cast<std::int64_t>(rng.next_below(span));
}

// ---------------------------------------------------------------- PWL ---

struct PwlCase {
  std::string label;
  FixedPwlSqrt::Config config;
};

std::vector<PwlCase> pwl_cases() {
  std::vector<PwlCase> cases;
  cases.push_back({"default uQ1.22/uQ13.8 -> uQ13.6", {}});
  // Narrow result: everything above 16 samples saturates.
  cases.push_back({"saturating uQ4.6 result",
                   {fx::Format{1, 22, false}, fx::Format{13, 8, false},
                    fx::Format{4, 6, false}}});
  // Result finer than the slope: the product is aligned left, not rounded.
  cases.push_back({"coarse slope uQ1.4, fine uQ13.10 result",
                   {fx::Format{1, 4, false}, fx::Format{13, 5, false},
                    fx::Format{13, 10, false}}});
  // Integer result: the final rounding shift is the whole fraction.
  cases.push_back({"integer uQ13.0 result",
                   {fx::Format{1, 22, false}, fx::Format{13, 8, false},
                    fx::Format{13, 0, false}}});
  // Signed formats: negative dx (wrong segment) can drive the sum below 0.
  cases.push_back({"signed slope and result",
                   {fx::Format{1, 22, true}, fx::Format{13, 3, true},
                    fx::Format{13, 6, true}}});
  return cases;
}

void expect_raw_matches_oracle(const FixedPwlSqrt& fixed, std::int64_t x,
                               std::size_t seg, const std::string& label) {
  ASSERT_EQ(fixed.evaluate_raw(x, seg), fixed.evaluate_in_segment(x, seg).raw())
      << label << " x " << x << " segment " << seg;
}

TEST(RawDatapath, FixedPwlRawMatchesFxValueOnRandomInputs) {
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  SplitMix64 rng(0x9a7dull);
  for (const PwlCase& c : pwl_cases()) {
    const FixedPwlSqrt fixed(pwl, c.config);
    const auto limit = static_cast<std::uint64_t>(fixed.x_limit());
    for (int i = 0; i < 20000; ++i) {
      const auto x = static_cast<std::int64_t>(rng.next_below(limit + 1));
      // Half the draws use x's own segment (what a tracker supplies), half
      // any segment: negative and oversized dx, saturating products.
      const std::size_t seg =
          i % 2 == 0 ? pwl.find_segment(std::max(1.0, static_cast<double>(x)))
                     : static_cast<std::size_t>(
                           rng.next_below(fixed.segment_count()));
      expect_raw_matches_oracle(fixed, x, seg, c.label);
    }
  }
}

TEST(RawDatapath, FixedPwlRawMatchesFxValueOnSegmentEdges) {
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  for (const PwlCase& c : pwl_cases()) {
    const FixedPwlSqrt fixed(pwl, c.config);
    const std::size_t n = fixed.segment_count();
    for (std::size_t s = 0; s < n; ++s) {
      const auto edge =
          static_cast<std::int64_t>(std::floor(pwl.segments()[s].x_start));
      for (const std::int64_t x : {edge - 1, edge, edge + 1}) {
        if (x < 0 || x > fixed.x_limit()) continue;
        // The segment on either side of the edge, and the edge's own.
        for (const std::size_t seg : {s == 0 ? s : s - 1, s,
                                      s + 1 < n ? s + 1 : s}) {
          expect_raw_matches_oracle(fixed, x, seg, c.label);
        }
      }
    }
    for (const std::int64_t x : {std::int64_t{0}, fixed.x_limit()}) {
      expect_raw_matches_oracle(fixed, x, 0, c.label);
      expect_raw_matches_oracle(fixed, x, n - 1, c.label);
    }
  }
}

TEST(RawDatapath, FixedPwlRawRejectsInputsOutsideItsDomain) {
  const PwlSqrt pwl = PwlSqrt::build(1.0, 1.0e5, 0.25);
  const FixedPwlSqrt fixed(pwl, {});
  EXPECT_EQ(fixed.x_limit(), 100000);
  EXPECT_THROW(fixed.evaluate_raw(-1, 0), ContractViolation);
  EXPECT_THROW(fixed.evaluate_raw(fixed.x_limit() + 1, 0), ContractViolation);
  EXPECT_THROW(fixed.evaluate_raw(16, fixed.segment_count()),
               ContractViolation);
}

TEST(RawDatapath, ConstructionRejectsAProductThatCouldOverflowInt64) {
  // |c1| < 2^52 times |dx| < 2^25 needs 77 bits: the proof that c1 * dx
  // fits int64_t (with rounding headroom) fails at construction.
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  FixedPwlSqrt::Config wide_slope;
  wide_slope.slope_format = fx::Format{30, 22, false};
  EXPECT_THROW((FixedPwlSqrt{pwl, wide_slope}), ContractViolation);
  // A slope grid much coarser than the result grid shifts the product
  // left instead: 2^23 * 2^25 * 2^16 needs 64 bits.
  FixedPwlSqrt::Config fine_result;
  fine_result.slope_format = fx::Format{1, 22, false};
  fine_result.result_format = fx::Format{13, 38, false};
  EXPECT_THROW((FixedPwlSqrt{pwl, fine_result}), ContractViolation);
}

TEST(RawDatapath, ConstructionRejectsADxWiderThanTheMultiplierInput) {
  // A domain reaching 2^40 sample^2 makes dx wider than the signed Q40.0
  // multiplier input, even with a slope narrow enough for the product.
  const PwlSqrt pwl = PwlSqrt::build(1.0, 1.2e12, 1.0e4);
  FixedPwlSqrt::Config narrow;
  narrow.slope_format = fx::Format{0, 8, false};
  EXPECT_THROW((FixedPwlSqrt{pwl, narrow}), ContractViolation);
  // Just inside the input width, the same formats are accepted.
  const PwlSqrt inside = PwlSqrt::build(1.0, 1.0e12, 1.0e4);
  EXPECT_NO_THROW((FixedPwlSqrt{inside, narrow}));
}

TEST(RawDatapath, ConstructionRejectsAnAlignedAddThatCouldOverflow) {
  // A c0 grid of 2^-48 aligns the Q20.f product up to 2^68.
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  FixedPwlSqrt::Config fine_value;
  fine_value.value_format = fx::Format{13, 48, false};
  EXPECT_THROW((FixedPwlSqrt{pwl, fine_value}), ContractViolation);
}

TEST(RawDatapath, TableFreeRejectsAResultTooWideForAnExactTwoPathSum) {
  // The block path sums raw words where the oracle sums to_real() values;
  // they agree only while the words stay below 2^52.
  const auto cfg = imaging::scaled_system(4, 5, 8);
  TableFreeConfig tf;
  tf.fixed.result_format = fx::Format{46, 6, false};
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  EXPECT_NO_THROW((FixedPwlSqrt{pwl, tf.fixed}));  // the PWL proofs hold
  EXPECT_THROW((TableFreeEngine{cfg, tf}), ContractViolation);
  tf.fixed.result_format = fx::Format{45, 6, false};
  EXPECT_NO_THROW((TableFreeEngine{cfg, tf}));
}

// -------------------------------------------------------------- steer ---

/// The Fig. 4 datapath through fx::Value, exactly as steer_compute_point
/// runs it.
std::int32_t steer_oracle(const TableSteerConfig& f, std::int64_t ref,
                          std::int64_t cx, std::int64_t cy) {
  const fx::Value sum0 =
      fx::add(fx::Value::from_raw(ref, f.entry_format),
              fx::Value::from_raw(cx, f.coeff_format), f.sum_format);
  const fx::Value sum1 = fx::add(
      sum0, fx::Value::from_raw(cy, f.coeff_format), f.sum_format);
  const std::int64_t idx = sum1.round_to_int(fx::Rounding::kHalfUp);
  return static_cast<std::int32_t>(idx < 0 ? 0 : idx);
}

struct SteerCase {
  std::string label;
  TableSteerConfig formats;
};

std::vector<SteerCase> steer_cases() {
  return {
      {"bits18", TableSteerConfig::bits18()},
      {"bits14", TableSteerConfig::bits14()},
      {"bits13", TableSteerConfig::bits13()},
      // Sum grid finer than both operands: the adds align left.
      {"fine sum", {fx::Format{13, 1, false}, fx::Format{13, 0, true},
                    fx::Format{14, 5, true}}},
      // Sum grid coarser than the table: stage 1 already rounds.
      {"coarse sum", {fx::Format{13, 5, false}, fx::Format{13, 4, true},
                      fx::Format{14, 2, true}}},
      // Narrow sum: stage results saturate.
      {"saturating sum", {fx::Format{13, 5, false}, fx::Format{13, 4, true},
                          fx::Format{9, 5, true}}},
  };
}

TEST(RawDatapath, SteerAdderMatchesTwoFxAddsAndRound) {
  SplitMix64 rng(0x57eeull);
  for (const SteerCase& c : steer_cases()) {
    const SteerAdder adder(c.formats);
    int clamped = 0;
    for (int i = 0; i < 50000; ++i) {
      const std::int64_t ref = random_raw(rng, c.formats.entry_format);
      const std::int64_t cx = random_raw(rng, c.formats.coeff_format);
      const std::int64_t cy = random_raw(rng, c.formats.coeff_format);
      const std::int32_t want = steer_oracle(c.formats, ref, cx, cy);
      ASSERT_EQ(adder(ref, cx, cy), want)
          << c.label << " ref " << ref << " cx " << cx << " cy " << cy;
      ASSERT_EQ(adder.stage2(adder.stage1(ref, cx), cy), want) << c.label;
      clamped += want == 0 ? 1 : 0;
    }
    EXPECT_GT(clamped, 0) << c.label << ": no negative sum clamped to 0";
  }
}

TEST(RawDatapath, SteerAdderClampsNegativeSumsAndMatchesAtTheCorners) {
  for (const SteerCase& c : steer_cases()) {
    const SteerAdder adder(c.formats);
    const fx::Format& e = c.formats.entry_format;
    const fx::Format& k = c.formats.coeff_format;
    for (const std::int64_t ref : {e.min_raw(), std::int64_t{1}, e.max_raw()}) {
      for (const std::int64_t cx : {k.min_raw(), std::int64_t{-1},
                                    std::int64_t{0}, k.max_raw()}) {
        for (const std::int64_t cy : {k.min_raw(), std::int64_t{0},
                                      k.max_raw()}) {
          ASSERT_EQ(adder(ref, cx, cy), steer_oracle(c.formats, ref, cx, cy))
              << c.label << " ref " << ref << " cx " << cx << " cy " << cy;
        }
      }
    }
    // A small delay pulled far negative lands on sample 0, not below.
    EXPECT_EQ(adder(1, k.min_raw(), k.min_raw()), 0) << c.label;
  }
}

TEST(RawDatapath, SteerAdderConstructionRejectsAnOverflowingFormatSet) {
  // Every format is a legal <= 62-bit word, but a 62-bit entry plus a
  // correction needs 63 bits before the sum is saturated.
  const TableSteerConfig too_wide{fx::Format{41, 21, false},
                                  fx::Format{1, 0, true},
                                  fx::Format{41, 21, true}};
  EXPECT_THROW(SteerAdder{too_wide}, ContractViolation);
  const TableSteerConfig widest_ok{fx::Format{40, 21, false},
                                   fx::Format{1, 0, true},
                                   fx::Format{40, 21, true}};
  EXPECT_NO_THROW(SteerAdder{widest_ok});
}

TEST(RawDatapath, SteerBlockRejectsAnAdderForOtherFormats) {
  const auto cfg = imaging::scaled_system(4, 5, 8);
  const TableSteerEngine engine(cfg, TableSteerConfig::bits18());
  const probe::MatrixProbe probe(cfg.probe);
  const imaging::VolumeGrid grid(cfg.volume);
  const SteerAdder other(TableSteerConfig::bits14());
  std::vector<imaging::FocalPoint> points{grid.focal_point(0, 0, 0)};
  imaging::FocalBlock block;
  block.points = points;
  block.uniform_depth = true;
  DelayPlane plane;
  plane.reshape(probe.element_count(), 1);
  SteerBlockScratch scratch;
  EXPECT_THROW(steer_compute_block(probe, engine.reference_table(),
                                   engine.corrections(), other, block, plane,
                                   scratch),
               ContractViolation);
}

// ------------------------------------------------- engines, end to end ---

/// Sweeps a whole frame block by block on `engine` and per point on a
/// clone; both must agree everywhere.
void expect_engine_block_matches_oracle(DelayEngine& engine,
                                        const imaging::SystemConfig& cfg,
                                        imaging::ScanOrder order,
                                        const std::string& label) {
  const imaging::VolumeGrid grid(cfg.volume);
  auto oracle = engine.clone();
  engine.begin_frame(Vec3{});
  oracle->begin_frame(Vec3{});
  DelayPlane native, reference;
  imaging::for_each_focal_block(
      grid, order, imaging::full_scan_range(cfg.volume, order), 23,
      [&](const imaging::FocalBlock& block) {
        engine.compute_block(block, native);
        oracle->compute_block_reference(block, reference);
        for (int e = 0; e < native.element_count(); ++e) {
          for (int p = 0; p < native.point_count(); ++p) {
            ASSERT_EQ(native.at(e, p), reference.at(e, p))
                << label << " element " << e << " point " << p;
          }
        }
      });
}

TEST(RawDatapath, EnginesWithOtherFormatsMatchTheirOracle) {
  const auto cfg = imaging::scaled_system(6, 7, 24);
  for (const imaging::ScanOrder order :
       {imaging::ScanOrder::kNappeByNappe,
        imaging::ScanOrder::kScanlineByScanline}) {
    for (const SteerCase& c : steer_cases()) {
      TableSteerEngine engine(cfg, c.formats);
      expect_engine_block_matches_oracle(engine, cfg, order, c.label);
    }
    for (const PwlCase& c : pwl_cases()) {
      TableFreeConfig tf;
      tf.fixed = c.config;
      TableFreeEngine engine(cfg, tf);
      expect_engine_block_matches_oracle(engine, cfg, order, c.label);
    }
    TableFreeConfig pwl_only;
    pwl_only.use_fixed_point = false;
    TableFreeEngine engine(cfg, pwl_only);
    expect_engine_block_matches_oracle(engine, cfg, order, "double PWL");
  }
}

}  // namespace
}  // namespace us3d::delay
