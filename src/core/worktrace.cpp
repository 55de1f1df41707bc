#include "airshed/core/worktrace.hpp"

#include <filesystem>

#include "airshed/durable/container.hpp"
#include "airshed/util/error.hpp"

namespace airshed {

namespace {

constexpr const char* kTraceFormat = "airshed-worktrace";
constexpr std::uint32_t kTraceVersion = 3;

std::string hour_section(std::size_t i) {
  return "hour" + std::to_string(i);
}

}  // namespace

double WorkTrace::total_transport_work() const {
  double w = 0.0;
  for (const HourTrace& h : hours) {
    for (const StepTrace& s : h.steps) {
      for (double x : s.transport1_layer_work) w += x;
      for (double x : s.transport2_layer_work) w += x;
    }
  }
  return w;
}

double WorkTrace::total_chemistry_work() const {
  double w = 0.0;
  for (const HourTrace& h : hours) {
    for (const StepTrace& s : h.steps) {
      for (double x : s.chem_column_work) w += x;
    }
  }
  return w;
}

double WorkTrace::total_aerosol_work() const {
  double w = 0.0;
  for (const HourTrace& h : hours) {
    for (const StepTrace& s : h.steps) w += s.aerosol_work;
  }
  return w;
}

double WorkTrace::total_io_work() const {
  double w = 0.0;
  for (const HourTrace& h : hours) {
    w += h.input_work + h.pretrans_work + h.output_work;
  }
  return w;
}

long long WorkTrace::total_steps() const {
  long long n = 0;
  for (const HourTrace& h : hours) n += static_cast<long long>(h.steps.size());
  return n;
}

void WorkTrace::save(const std::string& path) const {
  durable::ContainerWriter c(kTraceFormat, kTraceVersion);
  durable::PayloadWriter meta;
  meta.str(dataset)
      .u64(species).u64(layers).u64(points)
      .u64(transport_row_parallelism)
      .u64(hours.size());
  c.add_section("meta", std::move(meta).take());
  for (std::size_t i = 0; i < hours.size(); ++i) {
    const HourTrace& h = hours[i];
    durable::PayloadWriter p;
    p.f64(h.input_work).f64(h.pretrans_work).f64(h.output_work);
    p.u64(h.steps.size());
    for (const StepTrace& s : h.steps) {
      p.f64(s.aerosol_work)
          .doubles(s.transport1_layer_work)
          .doubles(s.transport2_layer_work)
          .doubles(s.chem_column_work);
    }
    c.add_section(hour_section(i), std::move(p).take());
  }
  c.write_atomic(path);
}

WorkTrace WorkTrace::load(const std::string& path) {
  const durable::ContainerReader c =
      durable::ContainerReader::read_file(path, kTraceFormat);
  if (c.version() != kTraceVersion) {
    throw durable::StorageError(path, "header", 0,
                                "unsupported worktrace version " +
                                    std::to_string(c.version()));
  }

  WorkTrace t;
  durable::PayloadReader meta = c.open("meta");
  t.dataset = meta.str();
  t.species = static_cast<std::size_t>(meta.u64());
  t.layers = static_cast<std::size_t>(meta.u64());
  t.points = static_cast<std::size_t>(meta.u64());
  t.transport_row_parallelism = static_cast<std::size_t>(meta.u64());
  const std::uint64_t nhours = meta.u64();
  meta.expect_end();
  if (nhours != c.section_count() - 1) {
    meta.fail("trace claims " + std::to_string(nhours) +
              " hours but holds " + std::to_string(c.section_count() - 1) +
              " hour sections");
  }

  t.hours.resize(static_cast<std::size_t>(nhours));
  for (std::size_t i = 0; i < t.hours.size(); ++i) {
    durable::PayloadReader p = c.open(hour_section(i));
    HourTrace& h = t.hours[i];
    h.input_work = p.f64();
    h.pretrans_work = p.f64();
    h.output_work = p.f64();
    const std::uint64_t nsteps = p.u64();
    if (nsteps > p.remaining()) {
      p.fail("step count " + std::to_string(nsteps) +
             " exceeds remaining payload");
    }
    h.steps.resize(static_cast<std::size_t>(nsteps));
    for (StepTrace& s : h.steps) {
      s.aerosol_work = p.f64();
      p.doubles(s.transport1_layer_work);
      p.doubles(s.transport2_layer_work);
      p.doubles(s.chem_column_work);
      if (s.transport1_layer_work.size() != t.layers ||
          s.transport2_layer_work.size() != t.layers ||
          s.chem_column_work.size() != t.points) {
        p.fail("step work vectors disagree with the trace shape");
      }
    }
    p.expect_end();
  }
  return t;
}

bool trace_file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

}  // namespace airshed
