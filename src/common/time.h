// Simulation time primitives.
//
// All simulation timestamps are integral microseconds since the start of the
// simulated epoch. We use a strong wrapper rather than std::chrono to keep
// event-loop keys trivially comparable and serializable in trace files.
#pragma once

#include <cmath>
#include <cstdint>
#include <compare>
#include <stdexcept>
#include <string>

namespace vc {

/// A point in simulated time, in microseconds since the simulation epoch.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t micros) : micros_(micros) {}

  static constexpr SimTime zero() { return SimTime{0}; }
  /// A time later than any event the simulator will ever schedule.
  static constexpr SimTime infinity() { return SimTime{INT64_MAX}; }

  constexpr std::int64_t micros() const { return micros_; }
  constexpr double seconds() const { return static_cast<double>(micros_) * 1e-6; }
  constexpr double millis() const { return static_cast<double>(micros_) * 1e-3; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  std::string to_string() const;

 private:
  std::int64_t micros_ = 0;
};

/// A span of simulated time, in microseconds.
class SimDuration {
 public:
  constexpr SimDuration() = default;
  constexpr explicit SimDuration(std::int64_t micros) : micros_(micros) {}

  static constexpr SimDuration zero() { return SimDuration{0}; }

  constexpr std::int64_t micros() const { return micros_; }
  constexpr double seconds() const { return static_cast<double>(micros_) * 1e-6; }
  constexpr double millis() const { return static_cast<double>(micros_) * 1e-3; }

  friend constexpr auto operator<=>(SimDuration, SimDuration) = default;

  std::string to_string() const;

 private:
  std::int64_t micros_ = 0;
};

// Construction helpers. The double overloads round to the nearest microsecond.
constexpr SimDuration micros(std::int64_t v) { return SimDuration{v}; }
constexpr SimDuration millis(std::int64_t v) { return SimDuration{v * 1000}; }
constexpr SimDuration seconds(std::int64_t v) { return SimDuration{v * 1'000'000}; }
constexpr SimDuration minutes(std::int64_t v) { return SimDuration{v * 60'000'000}; }
constexpr SimDuration millis_f(double v) {
  return SimDuration{static_cast<std::int64_t>(v * 1000.0 + (v >= 0 ? 0.5 : -0.5))};
}
/// millis_f for a value read from a file: beyond ±2^53 µs, where whole
/// microseconds stop being exact doubles (and, far beyond, the cast to
/// std::int64_t is undefined), it throws std::runtime_error("<what> out of range").
inline SimDuration checked_millis_f(double v, const std::string& what) {
  if (!(std::fabs(v * 1000.0) <= 0x1p53)) throw std::runtime_error{what + " out of range"};
  return millis_f(v);
}
constexpr SimDuration seconds_f(double v) {
  return SimDuration{static_cast<std::int64_t>(v * 1e6 + (v >= 0 ? 0.5 : -0.5))};
}

constexpr SimTime operator+(SimTime t, SimDuration d) { return SimTime{t.micros() + d.micros()}; }
constexpr SimTime operator-(SimTime t, SimDuration d) { return SimTime{t.micros() - d.micros()}; }
constexpr SimDuration operator-(SimTime a, SimTime b) { return SimDuration{a.micros() - b.micros()}; }
constexpr SimDuration operator+(SimDuration a, SimDuration b) { return SimDuration{a.micros() + b.micros()}; }
constexpr SimDuration operator-(SimDuration a, SimDuration b) { return SimDuration{a.micros() - b.micros()}; }
constexpr SimDuration operator*(SimDuration d, std::int64_t k) { return SimDuration{d.micros() * k}; }
constexpr SimDuration operator*(std::int64_t k, SimDuration d) { return d * k; }
constexpr SimDuration operator/(SimDuration d, std::int64_t k) { return SimDuration{d.micros() / k}; }

}  // namespace vc
