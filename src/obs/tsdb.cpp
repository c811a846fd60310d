#include "obs/tsdb.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

namespace hotc::obs {

namespace {

/// Denominator floor for the robust z-score: an all-equal window has
/// MAD 0, which would make any nonzero deviation infinitely anomalous.
/// The absolute min_delta floor is the real guard; this just keeps the
/// division defined.
constexpr double kMadEpsilon = 1e-9;

/// Consistency factor: MAD of a normal distribution times this is sigma.
constexpr double kMadToSigma = 1.4826;

}  // namespace

// ---------------------------------------------------------------------------
// encoding primitives
// ---------------------------------------------------------------------------

std::size_t TimeSeriesStore::encode_varint(std::uint64_t v, std::uint8_t* out) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

std::size_t TimeSeriesStore::decode_varint(const std::uint8_t* in,
                                           std::size_t avail,
                                           std::uint64_t* out) {
  std::uint64_t v = 0;
  for (std::size_t n = 0; n < avail && n < 10; ++n) {
    v |= static_cast<std::uint64_t>(in[n] & 0x7f) << (7 * n);
    if ((in[n] & 0x80) == 0) {
      *out = v;
      return n + 1;
    }
  }
  return 0;  // truncated (ran out of bytes) or overlong (> 10 bytes)
}

std::uint32_t TimeSeriesStore::checksum(const std::uint8_t* data,
                                        std::size_t len) {
  std::uint32_t h = 2166136261u;  // FNV-1a 32-bit offset basis
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

double TimeSeriesStore::robust_zscore(const double* window, std::size_t n,
                                      double delta, double* median_out) {
  if (n == 0) {
    if (median_out != nullptr) *median_out = 0.0;
    return 0.0;
  }
  // Typical windows (anomaly_window <= 64) sort on the stack: this runs
  // once per counter/gauge series per tick and must not allocate.
  double stack_buf[64];
  std::vector<double> heap_buf;
  double* buf = stack_buf;
  if (n > std::size(stack_buf)) {
    heap_buf.resize(n);
    buf = heap_buf.data();
  }
  std::copy(window, window + n, buf);
  const std::size_t mid = n / 2;
  std::nth_element(buf, buf + mid, buf + n);
  double median = buf[mid];
  if (n % 2 == 0) {
    // Even window: average the two middle order statistics.
    median = 0.5 * (median + *std::max_element(buf, buf + mid));
  }
  for (std::size_t i = 0; i < n; ++i) buf[i] = std::abs(buf[i] - median);
  std::nth_element(buf, buf + mid, buf + n);
  double mad = buf[mid];
  if (n % 2 == 0) {
    mad = 0.5 * (mad + *std::max_element(buf, buf + mid));
  }
  if (median_out != nullptr) *median_out = median;
  return std::abs(delta - median) / std::max(kMadToSigma * mad, kMadEpsilon);
}

// ---------------------------------------------------------------------------
// construction
// ---------------------------------------------------------------------------

TimeSeriesStore::TimeSeriesStore(Registry& registry, TsdbOptions options,
                                 SloEngine* slo)
    : registry_(registry),
      options_(options),
      slo_(slo),
      samples_total_(registry.counter(
          "hotc_tsdb_samples_total",
          "Registry snapshots appended to the time-series store")),
      evicted_total_(registry.counter(
          "hotc_tsdb_frames_evicted_total",
          "Frames evicted to stay inside the byte/frame budget")),
      anomaly_checks_total_(registry.counter(
          "hotc_anomaly_checks_total",
          "Per-series per-tick MAD/z-score evaluations")),
      anomaly_events_total_(registry.counter(
          "hotc_anomaly_events_total",
          "Metric anomalies fired into the SLO alert ring")),
      frames_gauge_(registry.gauge("hotc_tsdb_frames",
                                   "Frames currently retained")),
      bytes_gauge_(registry.gauge("hotc_tsdb_bytes",
                                  "Payload ring bytes currently in use")),
      series_gauge_(registry.gauge("hotc_tsdb_series",
                                   "Series registered in the flat table")) {
  options_.frame_capacity = std::max<std::size_t>(options_.frame_capacity, 2);
  options_.ring_bytes = std::max<std::size_t>(options_.ring_bytes, 4096);
  options_.max_series = std::max<std::size_t>(options_.max_series, 16);
  options_.anomaly_window = std::max<std::size_t>(options_.anomaly_window, 4);
  const RankedGuard lock(mu_);
  // Sized once, never resized: the BlackBox dumper captures raw pointers
  // into these buffers at attach time.
  ring_.assign(options_.ring_bytes, 0);
  frames_.assign(options_.frame_capacity, FrameInfo{});
  series_.assign(options_.max_series, SeriesInfo{});
  names_.assign(options_.name_bytes, '\0');
  side_.reserve(options_.max_series);
  meta_ = MetaBlock{};
}

// ---------------------------------------------------------------------------
// sampling / encoding
// ---------------------------------------------------------------------------

std::size_t TimeSeriesStore::find_or_add_series(const std::string& name,
                                                const std::string& labels,
                                                std::uint8_t kind) {
  lookup_.assign(name);
  lookup_ += '\x1f';
  lookup_ += labels;
  const auto it = index_.find(lookup_);
  if (it != index_.end()) return it->second;
  const std::size_t entry_len = name.size() + 1 + labels.size();
  if (meta_.series_count >= options_.max_series ||
      names_used_ + entry_len > names_.size() || entry_len > 0xffff) {
    ++meta_.series_dropped;
    return kNoSeries;
  }
  const std::size_t sid = meta_.series_count++;
  SeriesInfo& info = series_[sid];
  info.name_off = static_cast<std::uint32_t>(names_used_);
  info.name_len = static_cast<std::uint16_t>(entry_len);
  info.sep = static_cast<std::uint16_t>(name.size());
  info.kind = kind;
  std::memcpy(names_.data() + names_used_, name.data(), name.size());
  names_[names_used_ + name.size()] = '|';
  std::memcpy(names_.data() + names_used_ + name.size() + 1, labels.data(),
              labels.size());
  names_used_ += entry_len;
  side_.emplace_back();
  side_.back().name = name;
  side_.back().labels = labels;
  index_.emplace(lookup_, sid);
  return sid;
}

void TimeSeriesStore::sample(std::uint64_t tick) {
  sample_snapshot(tick, registry_.snapshot());
}

void TimeSeriesStore::sample_snapshot(std::uint64_t tick,
                                      const RegistrySnapshot& snap) {
  const RankedGuard lock(mu_);
  std::uint8_t var[10];
  if (snap.size() > sid_by_index_.size()) {
    sid_by_index_.resize(snap.size(), kUnresolved);
  }
  scratch_.clear();
  std::uint32_t encoded = 0;
  for (const MetricSample& s : snap) {
    // Each instrument is resolved by name once, the first time a snapshot
    // carries it.  New instruments are met in snapshot order, so series
    // ids are handed out in (name, labels) order among them.
    std::size_t& sid = sid_by_index_[s.index];
    if (sid == kUnresolved) {
      std::uint8_t kind = kCounterSeries;
      if (s.kind == MetricKind::kGauge) kind = kGaugeSeries;
      if (s.kind == MetricKind::kHistogram) kind = kHistogramSeries;
      sid = find_or_add_series(s.name, s.labels, kind);
    }
    if (sid == kNoSeries) continue;
    SeriesInfo& info = series_[sid];
    SideState& st = side_[sid];
    scratch_.insert(scratch_.end(), var, var + encode_varint(sid, var));
    switch (info.kind) {
      case kCounterSeries: {
        // Counters are integral; the double round-trips exactly below
        // 2^53, so the difference is exact and a plain truncating cast
        // (no libm round call) reconstructs the delta chain bit-for-bit.
        const std::int64_t delta =
            static_cast<std::int64_t>(s.value - info.last_value);
        const std::int64_t dod =
            delta - static_cast<std::int64_t>(info.last_delta);
        scratch_.insert(scratch_.end(), var,
                        var + encode_varint(zigzag(dod), var));
        info.last_value = s.value;
        info.last_delta = static_cast<double>(delta);
        observe_delta(sid, tick, static_cast<double>(delta));
        break;
      }
      case kGaugeSeries: {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &s.value, sizeof(bits));
        std::uint8_t raw[8];
        for (int i = 0; i < 8; ++i) {
          raw[i] = static_cast<std::uint8_t>(bits >> (8 * i));
        }
        scratch_.insert(scratch_.end(), raw, raw + 8);
        const double delta = s.value - info.last_value;
        info.last_delta = delta;
        info.last_value = s.value;
        observe_delta(sid, tick, delta);
        break;
      }
      case kHistogramSeries: {
        const HistogramSnapshot& h = s.histogram;
        const std::size_t nb = h.counts.size();
        if (st.last_buckets.size() != nb + 2) {
          st.last_buckets.assign(nb + 2, 0);
        }
        // `total` counts every observation including under/overflow and
        // buckets are monotone, so an unchanged total means an unchanged
        // histogram: emit an empty bucket list without touching the
        // multi-KB counts array at all.
        const double total_now = static_cast<double>(h.total);
        if (total_now == info.last_value) {
          scratch_.push_back(0);
          info.last_delta = 0.0;
          break;
        }
        // Sparse changed buckets, under/overflow as virtual indices nb
        // and nb + 1.  Counts are monotone, so deltas are plain varints.
        const std::size_t changed_at = scratch_.size();
        std::uint32_t changed = 0;
        scratch_.push_back(0);  // placeholder, patched below if <= 127
        // Interior buckets compare in 8-wide blocks: a typical tick dirties
        // one or two buckets, so most blocks memcmp equal and the scalar
        // walk only runs inside blocks that actually changed.
        const std::uint64_t* now_b = h.counts.data();
        std::uint64_t* before_b = st.last_buckets.data();
        for (std::size_t blk = 0; blk < nb; blk += 8) {
          const std::size_t end = std::min(blk + 8, nb);
          if (std::memcmp(now_b + blk, before_b + blk,
                          (end - blk) * sizeof(std::uint64_t)) == 0) {
            continue;
          }
          for (std::size_t b = blk; b < end; ++b) {
            if (now_b[b] == before_b[b]) continue;
            scratch_.insert(scratch_.end(), var,
                            var + encode_varint(b, var));
            scratch_.insert(scratch_.end(), var,
                            var + encode_varint(now_b[b] - before_b[b], var));
            before_b[b] = now_b[b];
            ++changed;
          }
        }
        const std::uint64_t uo[2] = {h.underflow, h.overflow};
        for (std::size_t k = 0; k < 2; ++k) {
          const std::size_t b = nb + k;
          if (uo[k] == st.last_buckets[b]) continue;
          scratch_.insert(scratch_.end(), var, var + encode_varint(b, var));
          scratch_.insert(scratch_.end(), var,
                          var + encode_varint(uo[k] - st.last_buckets[b], var));
          st.last_buckets[b] = uo[k];
          ++changed;
        }
        if (changed <= 0x7f) {
          scratch_[changed_at] = static_cast<std::uint8_t>(changed);
        } else {
          // Rare wide tick: re-emit with a multi-byte count prefix.
          const std::size_t n = encode_varint(changed, var);
          scratch_.insert(scratch_.begin() +
                              static_cast<std::ptrdiff_t>(changed_at),
                          var, var + n);
          scratch_.erase(scratch_.begin() +
                         static_cast<std::ptrdiff_t>(changed_at + n));
        }
        info.last_delta = total_now - info.last_value;
        info.last_value = total_now;
        break;
      }
      default:
        break;
    }
    ++encoded;
  }
  append_frame(tick, encoded);
  meta_.last_tick = tick;
  ++meta_.samples;
  if (checks_batch_ != 0) {
    anomaly_checks_total_.inc(checks_batch_);
    checks_batch_ = 0;
  }
  samples_total_.inc();
  frames_gauge_.set(static_cast<double>(meta_.frame_count));
  bytes_gauge_.set(static_cast<double>(meta_.ring_used));
  series_gauge_.set(static_cast<double>(meta_.series_count));
}

void TimeSeriesStore::append_frame(std::uint64_t tick,
                                   std::uint32_t series_in_frame) {
  std::uint8_t var[10];
  payload_.clear();
  payload_.insert(payload_.end(), var,
                  var + encode_varint(series_in_frame, var));
  payload_.insert(payload_.end(), scratch_.begin(), scratch_.end());
  const std::size_t len = payload_.size();
  if (len > ring_.size()) {
    // One tick wider than the whole ring: count it and move on — the
    // store must never grow.
    ++meta_.frames_dropped;
    return;
  }
  while (meta_.frame_count > 0 &&
         (meta_.frame_count >= options_.frame_capacity ||
          meta_.ring_used + len > ring_.size())) {
    evict_oldest_frame();
  }
  const std::size_t at =
      (meta_.frame_head + meta_.frame_count) % options_.frame_capacity;
  FrameInfo& f = frames_[at];
  f.tick = tick;
  f.offset = meta_.ring_head;
  f.len = static_cast<std::uint32_t>(len);
  f.series_in_frame = series_in_frame;
  f.checksum = checksum(payload_.data(), len);
  // Circular byte write (a frame may wrap the ring end).
  const std::size_t head = static_cast<std::size_t>(meta_.ring_head);
  const std::size_t first = std::min(len, ring_.size() - head);
  std::memcpy(ring_.data() + head, payload_.data(), first);
  if (first < len) {
    std::memcpy(ring_.data(), payload_.data() + first, len - first);
  }
  meta_.ring_head = (head + len) % ring_.size();
  meta_.ring_used += len;
  ++meta_.frame_count;
}

void TimeSeriesStore::evict_oldest_frame() {
  const FrameInfo& oldest = frames_[meta_.frame_head];
  meta_.ring_used -= oldest.len;
  meta_.frame_head = (meta_.frame_head + 1) % options_.frame_capacity;
  --meta_.frame_count;
  ++meta_.frames_evicted;
  evicted_total_.inc();
}

void TimeSeriesStore::observe_delta(std::size_t sid, std::uint64_t tick,
                                    double delta) {
  SideState& st = side_[sid];
  if (!st.seeded) {
    // The first observation's "delta" is the absolute starting value —
    // not a rate, so neither judged nor remembered.
    st.seeded = true;
    return;
  }
  // Batched into one atomic add per frame by sample_snapshot: a per-series
  // fetch_add would cost more than the whole quiet-path check it counts.
  ++checks_batch_;
  // Idle-series exit: a zero delta into a saturated all-zero window can
  // neither fire nor change any estimate — most of a steady registry
  // takes this branch every tick.
  if (delta == 0.0 && st.win_zero && !st.window.empty() &&
      st.win_count == st.window.size()) {
    return;
  }
  const bool judged = st.win_count >= options_.anomaly_min_history &&
                      tick >= st.cooldown_until;
  // Fast path: firing needs BOTH |delta - median| >= floor and a robust
  // z-score of 6+, i.e. a deviation of ~9 MADs.  In steady state the
  // EWMA center tracks the window median and the EWMA spread tracks the
  // mean absolute deviation, so a delta within half the floor — or
  // within two spreads, a ~4.5x margin under the 9-MAD bar — cannot
  // fire; skip the median/MAD selection for it.  This is what keeps the
  // per-tick scan out of the adaptive tick's budget: an uneventful
  // series costs two subtracts and a compare, not two nth_elements.
  const double adev = std::abs(delta - st.center);
  const double calm_band =
      std::max(0.5 * anomaly_floor(options_, st.center), 2.0 * st.spread);
  if (judged && adev >= calm_band) {
    double median = 0.0;
    const double z = robust_zscore(st.window.data(), st.win_count, delta,
                                   &median);
    if (z >= options_.anomaly_threshold &&
        std::abs(delta - median) >= anomaly_floor(options_, median)) {
      st.cooldown_until = tick + options_.anomaly_cooldown;
      anomaly_events_total_.inc();
      AnomalyEvent ev;
      ev.tick = tick;
      ev.series = st.name;
      ev.labels = st.labels;
      ev.zscore = z;
      ev.delta = delta;
      ev.median = median;
      anomaly_ring_.push_back(ev);
      while (anomaly_ring_.size() > options_.anomaly_capacity) {
        anomaly_ring_.pop_front();
      }
      if (slo_ != nullptr) {
        // kObsTsdb (65) -> kObsDiagnosis (70): legal ascending acquire.
        slo_->raise_anomaly(tick, st.name, st.labels, z, delta);
      }
    }
  }
  if (st.window.size() != options_.anomaly_window) {
    st.window.assign(options_.anomaly_window, 0.0);
    st.win_pos = 0;
    st.win_count = 0;
  }
  st.window[st.win_pos] = delta;
  if (delta != 0.0) st.win_zero = false;
  if (++st.win_pos == st.window.size()) st.win_pos = 0;
  if (st.win_count < st.window.size()) ++st.win_count;
  if (st.win_count == 1) {
    // Seed the estimates from the first remembered delta so the fast
    // path never judges against the zero-initialized defaults (and the
    // seed's |delta - 0| never pollutes the spread).
    st.center = delta;
    st.spread = 0.0;
  } else {
    st.spread += (adev - st.spread) * 0.125;
    st.center += (delta - st.center) * 0.125;
  }
}

// ---------------------------------------------------------------------------
// decoding / queries
// ---------------------------------------------------------------------------

const std::uint8_t* TimeSeriesStore::frame_payload(
    const FrameInfo& f, std::vector<std::uint8_t>* scratch) const {
  const std::size_t off = static_cast<std::size_t>(f.offset);
  if (off + f.len <= ring_.size()) return ring_.data() + off;
  scratch->resize(f.len);
  const std::size_t first = ring_.size() - off;
  std::memcpy(scratch->data(), ring_.data() + off, first);
  std::memcpy(scratch->data() + first, ring_.data(), f.len - first);
  return scratch->data();
}

int TimeSeriesStore::series_index(const std::string& name,
                                  const std::string& labels) const {
  const auto it = index_.find(name + '\x1f' + labels);
  return it == index_.end() ? -1 : static_cast<int>(it->second);
}

namespace {

/// One decoded frame entry for one series, or a skip over someone else's.
struct EntryCursor {
  const std::uint8_t* p;
  std::size_t avail;
  bool ok = true;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    const std::size_t n = TimeSeriesStore::decode_varint(p, avail, &v);
    if (n == 0) {
      ok = false;
      return 0;
    }
    p += n;
    avail -= n;
    return v;
  }

  double gauge_bits() {
    if (avail < 8) {
      ok = false;
      return 0.0;
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    p += 8;
    avail -= 8;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

}  // namespace

void TimeSeriesStore::decode_series(std::size_t sid,
                                    std::vector<std::uint64_t>* ticks,
                                    std::vector<double>* values,
                                    std::vector<double>* deltas) const {
  ticks->clear();
  values->clear();
  deltas->clear();
  const SeriesInfo& info = series_[sid];
  // Newest-first raw reads: per-frame dod (counter) or value (gauge).
  std::vector<std::uint64_t> raw_ticks;
  std::vector<double> raw;  // counter: dod; gauge: absolute value
  std::vector<std::uint8_t> wrap;
  for (std::size_t i = meta_.frame_count; i-- > 0;) {
    const FrameInfo& f =
        frames_[(meta_.frame_head + i) % options_.frame_capacity];
    EntryCursor c{frame_payload(f, &wrap), f.len};
    const std::uint64_t n = c.varint();
    bool found = false;
    for (std::uint64_t e = 0; e < n && c.ok; ++e) {
      const std::uint64_t esid = c.varint();
      if (!c.ok || esid >= meta_.series_count) break;
      const std::uint8_t kind = series_[esid].kind;
      if (kind == kGaugeSeries) {
        const double v = c.gauge_bits();
        if (esid == sid) {
          raw.push_back(v);
          found = true;
        }
      } else if (kind == kCounterSeries) {
        const std::uint64_t zz = c.varint();
        if (esid == sid) {
          raw.push_back(static_cast<double>(unzigzag(zz)));
          found = true;
        }
      } else {
        const std::uint64_t changed = c.varint();
        for (std::uint64_t b = 0; b < changed && c.ok; ++b) {
          c.varint();
          c.varint();
        }
        if (esid == sid) found = true;  // histogram: placeholder only
      }
      if (found && esid == sid) break;
    }
    if (!found) break;  // series born after this frame: stop walking back
    raw_ticks.push_back(f.tick);
    if (info.kind == kHistogramSeries) raw.push_back(0.0);
  }
  // Invert the encoding from the series-table anchors (newest first):
  //   value[i-1] = value[i] - delta[i];  delta[i-1] = delta[i] - dod[i].
  const std::size_t n = raw_ticks.size();
  ticks->resize(n);
  values->resize(n);
  deltas->resize(n);
  double v = info.last_value;
  double d = info.last_delta;
  for (std::size_t i = 0; i < n; ++i) {  // i = 0 is the NEWEST frame
    const std::size_t out = n - 1 - i;
    (*ticks)[out] = raw_ticks[i];
    (*values)[out] = v;
    if (info.kind == kCounterSeries) {
      (*deltas)[out] = d;
      const double dod = raw[i];
      v -= d;
      d -= dod;
    } else if (info.kind == kGaugeSeries) {
      // Gauges carry absolute values per frame; deltas are plain diffs
      // (undefined at the oldest retained frame, reported as 0).
      (*values)[out] = raw[i];
      (*deltas)[out] = i + 1 < n ? raw[i] - raw[i + 1] : 0.0;
    } else {
      (*values)[out] = 0.0;
      (*deltas)[out] = 0.0;
    }
  }
}

std::vector<TsdbPoint> TimeSeriesStore::range(const std::string& name,
                                              const std::string& labels,
                                              std::uint64_t from_tick,
                                              std::uint64_t to_tick) const {
  const RankedGuard lock(mu_);
  const int sid = series_index(name, labels);
  if (sid < 0) return {};
  std::vector<std::uint64_t> ticks;
  std::vector<double> values;
  std::vector<double> deltas;
  decode_series(static_cast<std::size_t>(sid), &ticks, &values, &deltas);
  std::vector<TsdbPoint> out;
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    if (ticks[i] < from_tick || ticks[i] > to_tick) continue;
    out.push_back(TsdbPoint{ticks[i], values[i]});
  }
  return out;
}

std::vector<TsdbPoint> TimeSeriesStore::rate(const std::string& name,
                                             const std::string& labels,
                                             std::uint64_t from_tick,
                                             std::uint64_t to_tick) const {
  const RankedGuard lock(mu_);
  const int sid = series_index(name, labels);
  if (sid < 0) return {};
  std::vector<std::uint64_t> ticks;
  std::vector<double> values;
  std::vector<double> deltas;
  decode_series(static_cast<std::size_t>(sid), &ticks, &values, &deltas);
  std::vector<TsdbPoint> out;
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    if (ticks[i] < from_tick || ticks[i] > to_tick) continue;
    out.push_back(TsdbPoint{ticks[i], deltas[i]});
  }
  return out;
}

std::uint64_t TimeSeriesStore::sum_histogram(
    std::size_t sid, std::size_t window, std::vector<std::uint64_t>* counts,
    std::vector<std::uint64_t>* per_frame_totals,
    std::vector<std::uint64_t>* frame_ticks) const {
  std::uint64_t total = 0;
  std::vector<std::uint8_t> wrap;
  const std::size_t n = std::min<std::size_t>(window, meta_.frame_count);
  // Newest `n` frames, collected newest-first then reversed by callers
  // that care about order.
  for (std::size_t i = 0; i < n; ++i) {
    const FrameInfo& f = frames_[(meta_.frame_head + meta_.frame_count - 1 -
                                  i) %
                                 options_.frame_capacity];
    EntryCursor c{frame_payload(f, &wrap), f.len};
    const std::uint64_t entries = c.varint();
    std::uint64_t frame_total = 0;
    bool found = false;
    for (std::uint64_t e = 0; e < entries && c.ok; ++e) {
      const std::uint64_t esid = c.varint();
      if (!c.ok || esid >= meta_.series_count) break;
      const std::uint8_t kind = series_[esid].kind;
      if (kind == kGaugeSeries) {
        c.gauge_bits();
      } else if (kind == kCounterSeries) {
        c.varint();
      } else {
        const std::uint64_t changed = c.varint();
        for (std::uint64_t b = 0; b < changed && c.ok; ++b) {
          const std::uint64_t idx = c.varint();
          const std::uint64_t delta = c.varint();
          if (esid == sid && c.ok && idx < counts->size()) {
            (*counts)[idx] += delta;
            frame_total += delta;
          }
        }
        if (esid == sid) found = true;
      }
      if (found) break;
    }
    if (!found) break;  // series born after this frame
    total += frame_total;
    if (per_frame_totals != nullptr) per_frame_totals->push_back(frame_total);
    if (frame_ticks != nullptr) frame_ticks->push_back(f.tick);
  }
  return total;
}

double TimeSeriesStore::quantile_over(const std::string& name,
                                      const std::string& labels, double q,
                                      std::size_t window) const {
  const RankedGuard lock(mu_);
  const int sid = series_index(name, labels);
  if (sid < 0 || series_[static_cast<std::size_t>(sid)].kind !=
                     kHistogramSeries) {
    return 0.0;
  }
  // Interior buckets + the two virtual under/overflow slots at the tail.
  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(LogHistogram::kBuckets) + 2, 0);
  sum_histogram(static_cast<std::size_t>(sid), window, &counts, nullptr,
                nullptr);
  HistogramSnapshot hs;
  hs.counts.assign(counts.begin(),
                   counts.begin() + LogHistogram::kBuckets);
  hs.underflow = counts[LogHistogram::kBuckets];
  hs.overflow = counts[LogHistogram::kBuckets + 1];
  for (const std::uint64_t c : counts) hs.total += c;
  return hs.quantile(q);
}

std::vector<TsdbPoint> TimeSeriesStore::quantile_series(
    const std::string& name, const std::string& labels, double q,
    std::size_t last_n) const {
  const RankedGuard lock(mu_);
  const int isid = series_index(name, labels);
  if (isid < 0 ||
      series_[static_cast<std::size_t>(isid)].kind != kHistogramSeries) {
    return {};
  }
  const std::size_t sid = static_cast<std::size_t>(isid);
  std::vector<std::uint8_t> wrap;
  std::vector<TsdbPoint> out;  // collected newest-first, reversed below
  const std::size_t n = std::min<std::size_t>(last_n, meta_.frame_count);
  for (std::size_t i = 0; i < n; ++i) {
    const FrameInfo& f = frames_[(meta_.frame_head + meta_.frame_count - 1 -
                                  i) %
                                 options_.frame_capacity];
    EntryCursor c{frame_payload(f, &wrap), f.len};
    const std::uint64_t entries = c.varint();
    HistogramSnapshot hs;
    hs.counts.assign(static_cast<std::size_t>(LogHistogram::kBuckets), 0);
    bool found = false;
    for (std::uint64_t e = 0; e < entries && c.ok; ++e) {
      const std::uint64_t esid = c.varint();
      if (!c.ok || esid >= meta_.series_count) break;
      const std::uint8_t kind = series_[esid].kind;
      if (kind == kGaugeSeries) {
        c.gauge_bits();
      } else if (kind == kCounterSeries) {
        c.varint();
      } else {
        const std::uint64_t changed = c.varint();
        for (std::uint64_t b = 0; b < changed && c.ok; ++b) {
          const std::uint64_t idx = c.varint();
          const std::uint64_t delta = c.varint();
          if (esid == sid && c.ok) {
            if (idx < hs.counts.size()) {
              hs.counts[idx] += delta;
            } else if (idx == hs.counts.size()) {
              hs.underflow += delta;
            } else {
              hs.overflow += delta;
            }
            hs.total += delta;
          }
        }
        if (esid == sid) found = true;
      }
      if (found) break;
    }
    if (!found) break;
    out.push_back(TsdbPoint{f.tick, hs.quantile(q)});
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<AnomalyEvent> TimeSeriesStore::anomalies() const {
  const RankedGuard lock(mu_);
  return {anomaly_ring_.begin(), anomaly_ring_.end()};
}

// ---------------------------------------------------------------------------
// introspection + raw regions
// ---------------------------------------------------------------------------

std::size_t TimeSeriesStore::frames() const {
  const RankedGuard lock(mu_);
  return static_cast<std::size_t>(meta_.frame_count);
}

std::size_t TimeSeriesStore::series_count() const {
  const RankedGuard lock(mu_);
  return static_cast<std::size_t>(meta_.series_count);
}

std::uint64_t TimeSeriesStore::samples() const {
  const RankedGuard lock(mu_);
  return meta_.samples;
}

std::uint64_t TimeSeriesStore::frames_evicted() const {
  const RankedGuard lock(mu_);
  return meta_.frames_evicted;
}

std::uint64_t TimeSeriesStore::last_tick() const {
  const RankedGuard lock(mu_);
  return meta_.last_tick;
}

// Raw-region accessors intentionally take no lock: the crash dumper calls
// them from a fatal-signal / pre-abort context where acquiring mu_ could
// deadlock against the thread that just crashed while sampling.  The
// buffers themselves never move after construction, and the offline
// decoder validates each frame's checksum, skipping any the crash tore.

TimeSeriesStore::RawRegion TimeSeriesStore::ring_region() const {
  return {ring_.data(), ring_.size(), {ring_.size(), 0, 0, 0}};
}

TimeSeriesStore::RawRegion TimeSeriesStore::frame_region() const {
  return {frames_.data(), frames_.size() * sizeof(FrameInfo),
          {frames_.size(), sizeof(FrameInfo), 0, 0}};
}

TimeSeriesStore::RawRegion TimeSeriesStore::series_region() const {
  return {series_.data(), series_.size() * sizeof(SeriesInfo),
          {series_.size(), sizeof(SeriesInfo), 0, 0}};
}

TimeSeriesStore::RawRegion TimeSeriesStore::name_region() const {
  return {names_.data(), names_.size(), {names_.size(), 0, 0, 0}};
}

TimeSeriesStore::RawRegion TimeSeriesStore::meta_region() const {
  return {&meta_, sizeof(MetaBlock), {sizeof(MetaBlock), 0, 0, 0}};
}

}  // namespace hotc::obs
