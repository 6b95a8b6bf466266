//! Streaming metrics: fixed-bucket log-linear histograms, counters, and
//! gauges, with a deterministic merge so per-worker registries from the
//! parallel run harness combine into the same result regardless of how
//! many workers produced them (aggregation happens in seed order, and
//! every operation here is order-insensitive integer/bucket arithmetic).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A fixed-bucket log-linear histogram: `decades` powers of ten starting
/// at `10^min_exp`, each split into `sub` linear sub-buckets, plus
/// underflow/overflow bins. Quantiles come from cumulative bucket counts
/// (nearest-rank, reporting the bucket's upper bound) — so memory is
/// constant no matter how many samples stream through, at the price of a
/// bounded relative error set by the sub-bucket width.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogLinearHistogram {
    min_exp: i32,
    decades: u32,
    sub: u32,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    /// Decade lower bounds `10^(min_exp + d)` for `d = 0..=decades`: the
    /// record fast path's lookup table, replacing a `log10`+`powi` pair
    /// per sample with a binary-exponent guess and one table compare.
    /// Derived from the layout fields, skipped by serde (rebuilt on the
    /// first record after deserialization) and excluded from equality.
    #[serde(skip)]
    bounds: Vec<f64>,
}

impl PartialEq for LogLinearHistogram {
    fn eq(&self, other: &Self) -> bool {
        // `bounds` is a cache of the layout fields; two histograms with
        // equal layouts are equal regardless of whether it is built yet.
        self.min_exp == other.min_exp
            && self.decades == other.decades
            && self.sub == other.sub
            && self.buckets == other.buckets
            && self.underflow == other.underflow
            && self.overflow == other.overflow
            && self.count == other.count
            && self.sum == other.sum
    }
}

impl Default for LogLinearHistogram {
    /// Covers 1 µs to 10 000 s — every duration this simulator produces —
    /// with 16 linear sub-buckets per decade, each 0.5625·10^e wide. A
    /// quantile reports its bucket's upper edge, so its relative error
    /// depends on where in the decade it lands: up to 56% in the first
    /// sub-bucket, [10^e, 1.5625·10^e), falling to ~6% in the last.
    fn default() -> Self {
        LogLinearHistogram::with_range(-6, 10, 16)
    }
}

impl LogLinearHistogram {
    /// A histogram spanning `[10^min_exp, 10^(min_exp + decades))` with
    /// `sub` linear sub-buckets per decade.
    pub fn with_range(min_exp: i32, decades: u32, sub: u32) -> Self {
        assert!(
            decades > 0 && sub > 0,
            "histogram needs at least one bucket"
        );
        LogLinearHistogram {
            min_exp,
            decades,
            sub,
            buckets: vec![0; (decades * sub) as usize],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            bounds: Self::build_bounds(min_exp, decades),
        }
    }

    fn build_bounds(min_exp: i32, decades: u32) -> Vec<f64> {
        (0..=decades as i32).map(|d| 10f64.powi(min_exp + d)).collect()
    }

    fn lower_bound(&self) -> f64 {
        10f64.powi(self.min_exp)
    }

    fn upper_bound(&self) -> f64 {
        10f64.powi(self.min_exp + self.decades as i32)
    }

    /// Upper edge of bucket `idx` (the value a quantile landing in this
    /// bucket reports).
    fn bucket_hi(&self, idx: usize) -> f64 {
        let d = idx / self.sub as usize;
        let s = idx % self.sub as usize + 1;
        10f64.powi(self.min_exp + d as i32) * (1.0 + 9.0 * s as f64 / f64::from(self.sub))
    }

    /// Records one sample. Non-finite samples are ignored; values below
    /// the range land in the underflow bin, values at or above the top in
    /// the overflow bin.
    ///
    /// The decade comes from the sample's binary exponent (one multiply
    /// and shift approximates `log10`) corrected against the precomputed
    /// bound table, not from libm — this runs once per resolved request
    /// in the fleet hot loop.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        if self.bounds.is_empty() {
            // Deserialized histograms arrive without the cache.
            self.bounds = Self::build_bounds(self.min_exp, self.decades);
        }
        let decades = self.decades as usize;
        if v < self.bounds[0] {
            self.underflow += 1;
            return;
        }
        if v >= self.bounds[decades] {
            self.overflow += 1;
            return;
        }
        // floor(e·log10 2) via the 1233/4096 approximation seeds the
        // decade; in-range samples (bounds[0] ≤ v < bounds[decades])
        // need at most one correction step in practice, and the loops
        // make any guess error harmless.
        let e = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let guess = ((e * 1233) >> 12) - self.min_exp;
        let mut d = guess.clamp(0, decades as i32 - 1) as usize;
        while d > 0 && v < self.bounds[d] {
            d -= 1;
        }
        while v >= self.bounds[d + 1] {
            d += 1;
        }
        let base = self.bounds[d];
        let frac = (v / base - 1.0) / 9.0;
        let s = ((frac * f64::from(self.sub)) as usize).min(self.sub as usize - 1);
        self.buckets[d * self.sub as usize + s] += 1;
    }

    /// Total samples recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Nearest-rank quantile estimate: the upper edge of the bucket
    /// holding the ⌈q/100·n⌉-th smallest sample. `None` when empty.
    ///
    /// # Panics
    /// Panics when `q` is outside `[0, 100]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let target = ((q / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= target {
            // All we know about underflow samples is the range floor.
            return Some(self.lower_bound());
        }
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(self.bucket_hi(idx));
            }
        }
        Some(self.upper_bound())
    }

    /// Merges another histogram into this one (elementwise bucket add).
    ///
    /// # Panics
    /// Panics when the bucket layouts differ.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        assert!(
            self.min_exp == other.min_exp && self.decades == other.decades && self.sub == other.sub,
            "cannot merge histograms with different bucket layouts"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A named bag of counters, gauges, and histograms.
///
/// Keys live in `BTreeMap`s so iteration — and therefore serialization
/// and rendering — is always in sorted key order, independent of the
/// order metrics were first touched.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, LogLinearHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to a counter, creating it at zero if absent. The hot
    /// path (an existing counter) allocates nothing; the key `String` is
    /// only built on first touch.
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Reads a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raises a high-watermark gauge to `v` if `v` exceeds it. Allocation
    /// only happens on a gauge's first touch.
    pub fn gauge_max(&mut self, name: &str, v: i64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = (*g).max(v),
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Reads a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into a histogram, creating it (default layout)
    /// if absent. Allocation only happens on a histogram's first touch.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = LogLinearHistogram::default();
                h.record(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Looks a histogram up.
    pub fn histogram(&self, name: &str) -> Option<&LogLinearHistogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry into this one: counters add, gauges keep
    /// the maximum, histograms add bucketwise. All bucket/counter state
    /// is integer arithmetic, so merging is order-insensitive; only the
    /// float `sum` inside a histogram re-associates, which is why the
    /// replication harness always merges in seed order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(i64::MIN);
            *g = (*g).max(*v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Renders the registry as aligned text lines (sorted by name).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter   {k:<28} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge     {k:<28} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let (p50, p95, p99) = (
                h.quantile(50.0).unwrap_or(0.0),
                h.quantile(95.0).unwrap_or(0.0),
                h.quantile(99.0).unwrap_or(0.0),
            );
            out.push_str(&format!(
                "histogram {k:<28} n={} mean={:.4} p50≈{p50:.4} p95≈{p95:.4} p99≈{p99:.4}\n",
                h.count(),
                h.mean().unwrap_or(0.0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = LogLinearHistogram::default();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // 1ms .. 1s
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(50.0).unwrap();
        let p99 = h.quantile(99.0).unwrap();
        // Bucket upper bounds: estimates sit at or above the true value,
        // within one sub-bucket width (~6% per decade/16).
        assert!((0.5..=0.57).contains(&p50), "p50 = {p50}");
        assert!((0.99..=1.12).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        let mean = h.mean().unwrap();
        assert!((mean - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn record_fast_path_matches_reference_bucketing() {
        // Reference: linear scan over the decade bounds, then the same
        // sub-bucket arithmetic. Sweeps log-spaced values across the
        // whole range plus every exact decade bound.
        let layouts = [(-6i32, 10u32, 16u32), (-3, 4, 8), (0, 2, 4)];
        for (min_exp, decades, sub) in layouts {
            let bounds: Vec<f64> = (0..=decades as i32)
                .map(|d| 10f64.powi(min_exp + d))
                .collect();
            let mut values: Vec<f64> = (0..5000)
                .map(|i| {
                    let span = decades as f64 + 2.0;
                    10f64.powf(min_exp as f64 - 1.0 + span * i as f64 / 5000.0)
                })
                .collect();
            values.extend(bounds.iter().copied());
            values.extend(bounds.iter().map(|b| b * (1.0 - 1e-15)));
            for v in values {
                let mut h = LogLinearHistogram::with_range(min_exp, decades, sub);
                h.record(v);
                // Reference index.
                let expect = if v < bounds[0] {
                    None // underflow
                } else if v >= bounds[decades as usize] {
                    Some(usize::MAX) // overflow marker
                } else {
                    let d = (0..decades as usize)
                        .rfind(|&d| v >= bounds[d])
                        .expect("in range");
                    let frac = (v / bounds[d] - 1.0) / 9.0;
                    let s = ((frac * f64::from(sub)) as usize).min(sub as usize - 1);
                    Some(d * sub as usize + s)
                };
                match expect {
                    None => assert_eq!(h.underflow, 1, "underflow for {v}"),
                    Some(usize::MAX) => assert_eq!(h.overflow, 1, "overflow for {v}"),
                    Some(idx) => assert_eq!(
                        h.buckets.iter().position(|&n| n == 1),
                        Some(idx),
                        "bucket for {v} (layout {min_exp}/{decades}/{sub})"
                    ),
                }
            }
        }
    }

    #[test]
    fn deserialized_histogram_keeps_recording_correctly() {
        let mut h = LogLinearHistogram::default();
        h.record(0.25);
        let mut back: LogLinearHistogram =
            serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(back, h);
        // The bounds cache is rebuilt on the next record.
        back.record(0.25);
        h.record(0.25);
        assert_eq!(back, h);
        assert_eq!(back.quantile(50.0), h.quantile(50.0));
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LogLinearHistogram::default();
        h.record(0.0); // below 1µs → underflow
        h.record(1e9); // above 10^4 s → overflow
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0).unwrap(), 1e-6); // underflow reports the floor
        assert_eq!(h.quantile(100.0).unwrap(), 1e4); // overflow reports the ceiling
    }

    #[test]
    fn histogram_merge_equals_combined_stream() {
        let mut a = LogLinearHistogram::default();
        let mut b = LogLinearHistogram::default();
        let mut both = LogLinearHistogram::default();
        for i in 0..500 {
            let v = 0.001 * (1.0 + i as f64);
            a.record(v);
            both.record(v);
        }
        for i in 0..300 {
            let v = 0.01 * (1.0 + i as f64);
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        // Bucket contents and counts are integer-exact; the sum may
        // differ in the last float bit because addition re-associates.
        assert_eq!(a.count(), both.count());
        assert!((a.sum() - both.sum()).abs() < 1e-9);
        for q in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.quantile(q), both.quantile(q), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn histogram_merge_rejects_layout_mismatch() {
        let mut a = LogLinearHistogram::default();
        let b = LogLinearHistogram::with_range(-3, 4, 8);
        a.merge(&b);
    }

    #[test]
    fn registry_merge_is_order_insensitive() {
        let mk = |lo: u64, hi: u64, gauge: i64| {
            let mut m = MetricsRegistry::new();
            for i in lo..hi {
                m.inc("requests_total", 1);
                m.observe("latency_seconds", i as f64 / 100.0);
            }
            m.gauge_max("peak_instances", gauge);
            m
        };
        let parts = [mk(0, 40, 3), mk(40, 90, 9), mk(90, 100, 5)];
        let mut forward = MetricsRegistry::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = MetricsRegistry::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        // Integer state is identical whatever the merge order; the float
        // histogram sum may re-associate, so compare it with tolerance.
        assert_eq!(forward.counter("requests_total"), 100);
        assert_eq!(backward.counter("requests_total"), 100);
        assert_eq!(forward.gauge("peak_instances"), Some(9));
        assert_eq!(backward.gauge("peak_instances"), Some(9));
        let (fh, bh) = (
            forward.histogram("latency_seconds").unwrap(),
            backward.histogram("latency_seconds").unwrap(),
        );
        assert_eq!(fh.count(), 100);
        assert_eq!(bh.count(), 100);
        for q in [1.0, 50.0, 99.0] {
            assert_eq!(fh.quantile(q), bh.quantile(q), "q={q}");
        }
        assert!((fh.sum() - bh.sum()).abs() < 1e-9);
    }

    #[test]
    fn registry_serializes_in_sorted_key_order() {
        let mut m = MetricsRegistry::new();
        m.inc("zeta", 1);
        m.inc("alpha", 2);
        let json = serde_json::to_string(&m).unwrap();
        let a = json.find("alpha").unwrap();
        let z = json.find("zeta").unwrap();
        assert!(a < z, "{json}");
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn render_mentions_every_metric() {
        let mut m = MetricsRegistry::new();
        m.inc("requests_total", 7);
        m.gauge_max("peak_instances", 4);
        m.observe("latency_seconds", 0.25);
        let text = m.render();
        assert!(text.contains("requests_total"));
        assert!(text.contains("peak_instances"));
        assert!(text.contains("latency_seconds"));
    }
}
