// Bit-accurate fixed-point arithmetic used to model the hardware datapaths.
//
// The paper stores reference delays as unsigned Q13.5 (18-bit), steering
// corrections as signed Q13.4 (18-bit), and also evaluates a 14-bit variant.
// Every hardware quantity in this repo is represented as a raw integer word
// plus a Format, and all arithmetic is carried out on the raw words so that
// rounding/saturation behaviour matches what an RTL implementation would do.
#ifndef US3D_COMMON_FIXED_POINT_H
#define US3D_COMMON_FIXED_POINT_H

#include <algorithm>
#include <cstdint>
#include <string>

namespace us3d::fx {

/// How to round when a real value (or a wider word) maps onto fewer
/// fractional bits. Hardware beamformers typically use half-up rounding
/// (add half LSB, truncate), which is what the paper assumes.
enum class Rounding {
  kHalfUp,      ///< round to nearest, ties away from zero for positives
  kHalfEven,    ///< round to nearest, ties to even (IEEE-style)
  kTruncate,    ///< drop fractional bits (toward zero)
  kFloor,       ///< drop fractional bits (toward -inf); free in hardware
};

/// What to do when a value exceeds the representable range.
enum class Overflow {
  kSaturate,  ///< clamp to min/max representable
  kWrap,      ///< two's-complement wraparound (what a plain adder does)
  kThrow,     ///< raise ContractViolation; used in tests/debug
};

/// Widest raw word any Format may declare, and the headroom every raw
/// intermediate of a resolved datapath (see Requantize) is proved to stay
/// within: 62 bits leave the sign and one bit for a rounding add in int64_t.
constexpr int kMaxWordBits = 62;

/// A fixed-point format Q<integer_bits>.<fraction_bits>, optionally signed.
/// The sign bit, when present, is *in addition* to integer_bits, matching
/// the paper's notation ("signed 13.4" occupies 1+13+4 = 18 bits).
struct Format {
  int integer_bits = 0;
  int fraction_bits = 0;
  bool is_signed = false;

  constexpr int total_bits() const {
    return integer_bits + fraction_bits + (is_signed ? 1 : 0);
  }
  /// |raw| <= 2^magnitude_bits() for every representable word.
  constexpr int magnitude_bits() const { return integer_bits + fraction_bits; }
  /// Scale factor: real = raw / 2^fraction_bits.
  double scale() const;
  /// Smallest/largest representable raw word.
  std::int64_t min_raw() const;
  std::int64_t max_raw() const;
  /// Smallest/largest representable real value.
  double min_real() const;
  double max_real() const;
  /// One least-significant-bit step in real units.
  double lsb() const;

  constexpr bool operator==(const Format&) const = default;

  std::string to_string() const;  ///< e.g. "uQ13.5 (18b)" / "sQ13.4 (18b)"
};

/// Unsigned Q13.5: the paper's 18-bit reference-delay format.
constexpr Format kRefDelay18 = Format{13, 5, false};
/// Signed Q13.4: the paper's 18-bit steering-correction format.
constexpr Format kCorrection18 = Format{13, 4, true};
/// Unsigned Q13.1: the 14-bit reference-delay variant.
constexpr Format kRefDelay14 = Format{13, 1, false};
/// Signed Q13.0: the 14-bit steering-correction variant.
constexpr Format kCorrection14 = Format{13, 0, true};

/// A fixed-point value: raw integer word + format. Value-semantic and cheap
/// to copy; arithmetic helpers below return results in an explicit target
/// format so every width change in the modelled datapath is visible in code.
class Value {
 public:
  Value() = default;

  /// Quantize a real number into `fmt`.
  static Value from_real(double real, const Format& fmt,
                         Rounding rounding = Rounding::kHalfUp,
                         Overflow overflow = Overflow::kSaturate);
  /// Adopt an existing raw word (must be in range for `fmt`).
  static Value from_raw(std::int64_t raw, const Format& fmt);

  double to_real() const;
  std::int64_t raw() const { return raw_; }
  const Format& format() const { return fmt_; }

  /// Re-quantize into another format (width/alignment change in hardware).
  Value rescaled(const Format& target, Rounding rounding = Rounding::kHalfUp,
                 Overflow overflow = Overflow::kSaturate) const;

  /// Round to the nearest integer (echo-buffer sample index).
  std::int64_t round_to_int(Rounding rounding = Rounding::kHalfUp) const;

  bool operator==(const Value& o) const = default;

 private:
  Value(std::int64_t raw, const Format& fmt) : raw_(raw), fmt_(fmt) {}
  std::int64_t raw_ = 0;
  Format fmt_{};
};

/// a + b, result quantized into `result_fmt`. Operands may have different
/// fraction alignments; they are aligned to the finer grid first (exactly),
/// then the sum is rounded/saturated into the result format.
Value add(const Value& a, const Value& b, const Format& result_fmt,
          Rounding rounding = Rounding::kHalfUp,
          Overflow overflow = Overflow::kSaturate);

/// a - b, result quantized into `result_fmt`.
Value sub(const Value& a, const Value& b, const Format& result_fmt,
          Rounding rounding = Rounding::kHalfUp,
          Overflow overflow = Overflow::kSaturate);

/// a * b, result quantized into `result_fmt`. The full-precision product is
/// formed on the raw words (as a hardware multiplier would) and then rounded.
Value mul(const Value& a, const Value& b, const Format& result_fmt,
          Rounding rounding = Rounding::kHalfUp,
          Overflow overflow = Overflow::kSaturate);

/// Half-up (ties away from zero) rounding of raw * 2^-shift, shift >= 0,
/// with the half-LSB constant resolved once: the kHalfUp rule of every
/// operation above, in a form hot loops can hold in registers.
struct RoundShift {
  int shift = 0;
  std::int64_t half = 0;

  constexpr RoundShift() = default;
  constexpr explicit RoundShift(int s)
      : shift(s), half(s > 0 ? std::int64_t{1} << (s - 1) : 0) {}

  constexpr std::int64_t operator()(std::int64_t raw) const {
    return raw >= 0 ? (raw + half) >> shift : -((-raw + half) >> shift);
  }
};

/// One width change of a modelled datapath, resolved at construction: a
/// full-precision word with `from_fraction_bits` fraction bits re-quantized
/// into `to` with kHalfUp rounding and kSaturate overflow. Bit-identical to
/// what add/sub/mul do after forming their wide word, minus the runtime
/// Format, the mode switches and the from_raw check. The caller proves at
/// its own construction that the wide word, aligned, stays within
/// kMaxWordBits (see magnitude_bits()).
struct Requantize {
  int left = 0;        ///< exact alignment when `to` is the finer grid
  RoundShift round{};  ///< rounding shift when `to` is the coarser grid
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  Requantize() = default;
  Requantize(int from_fraction_bits, const Format& to);

  std::int64_t operator()(std::int64_t wide) const {
    return std::clamp(round(wide << left), lo, hi);
  }
};

/// Round a real number onto an integer grid with the given mode.
/// Exposed because delay *selection* (index into the echo buffer) uses the
/// same rounding as the fixed-point datapath.
std::int64_t round_real_to_int(double value, Rounding rounding);

}  // namespace us3d::fx

#endif  // US3D_COMMON_FIXED_POINT_H
