//! Simulation statistics: named counters and log-bucketed distributions.
//!
//! Every sampled quantity is kept as a [`Histogram`]: an exact [`Summary`]
//! (count / sum / sum of squares / min / max) plus HdrHistogram-style
//! log-bucketed counts giving p50/p95/p99 within a bounded relative error
//! (≤ 12.5%, from 8 sub-buckets per octave). Bucket counts merge exactly
//! across registries, so quantiles of a merged run equal quantiles of the
//! concatenated sample stream — the property tests in this module rely on it.

use std::collections::BTreeMap;
use std::fmt;

use crate::json;

/// Sub-bucket resolution: each power-of-two octave splits into `2^SUB_BITS`
/// linear sub-buckets. Values below `2^SUB_BITS` are exact.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// A running summary of an observed quantity (e.g. cycles per atomic region).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples (u128: immune to overflow for any u64 stream).
    pub sum: u128,
    /// Sum of squared samples (for variance; u128 to avoid overflow).
    pub sum_sq: u128,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Summary {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
        // Saturating: two squares of ~u64::MAX exceed u128. Saturation is
        // commutative and associative, so merges stay order-independent.
        self.sum_sq = self.sum_sq.saturating_add(u128::from(v) * u128::from(v));
    }

    /// Arithmetic mean of the samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Population variance of the samples, or 0.0 when empty.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.mean();
        // E[x^2] - E[x]^2, clamped: the two terms are near-equal for tight
        // distributions and f64 rounding can drive the difference negative.
        (self.sum_sq as f64 / n - mean * mean).max(0.0)
    }

    /// Population standard deviation of the samples, or 0.0 when empty.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Folds another summary's samples into this one, exactly.
    pub fn merge_from(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
    }
}

/// A log-bucketed histogram: an exact [`Summary`] plus per-bucket counts
/// supporting quantile queries and exact merges.
#[derive(Debug, Default, PartialEq)]
pub struct Histogram {
    summary: Summary,
    /// Bucket counts, indexed by [`bucket_index`]; grown on demand.
    counts: Vec<u64>,
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            summary: self.summary,
            counts: self.counts.clone(),
        }
    }

    /// Reuses the bucket vector's buffer.
    fn clone_from(&mut self, src: &Self) {
        self.summary = src.summary;
        self.counts.clone_from(&src.counts);
    }
}

/// Maps a sample to its bucket index. Values below `SUB` map exactly;
/// larger values share an octave split into `SUB` linear sub-buckets.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS;
    let sub = (v >> octave) & (SUB - 1);
    (SUB + u64::from(octave) * SUB + sub) as usize
}

/// The inclusive value range `[lo, hi]` covered by bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, index);
    }
    let octave = index / SUB - 1;
    let sub = index % SUB;
    let lo = (SUB + sub) << octave;
    (lo, lo + ((1u64 << octave) - 1))
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.summary.record(v);
        let i = bucket_index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// The exact running summary (count, sum, min, max, variance).
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.summary.count
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded samples, or 0 when
    /// empty. Exact for values below 8; within one sub-bucket (≤ 12.5%
    /// relative error) above, linearly interpolated inside the bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.summary.count;
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest value with at least ceil(q*n) samples
        // at or below it.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                // within is 1..=c; interpolate in u128 — top-octave widths
                // (~2^61) times a count overflow u64.
                let within = rank - cum;
                let interp = u128::from(hi - lo) * u128::from(within) / u128::from(c);
                let est = lo + interp as u64;
                // The exact extremes are known; never report outside them.
                return est.clamp(self.summary.min, self.summary.max);
            }
            cum += c;
        }
        self.summary.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.summary.max
    }

    /// Folds another histogram into this one. Bucket counts add, so the
    /// result is identical to a histogram of the concatenated sample
    /// streams — not an approximation.
    pub fn merge_from(&mut self, other: &Histogram) {
        self.summary.merge_from(&other.summary);
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
    }

    /// Renders the histogram as a lossless JSON object: the exact summary
    /// plus the raw bucket counts, so [`Histogram::from_exact_json`]
    /// reconstructs a bit-identical histogram. The 128-bit sums are
    /// emitted as decimal *strings* — they can exceed what any JSON
    /// number representation keeps exact.
    ///
    /// This is the persistence format of the run-result cache; the
    /// derived-quantile report for humans is [`Histogram::to_json`].
    pub fn to_exact_json(&self) -> String {
        let s = &self.summary;
        let mut counts = String::from("[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                counts.push(',');
            }
            counts.push_str(&c.to_string());
        }
        counts.push(']');
        format!(
            "{{\"count\":{},\"sum\":\"{}\",\"sum_sq\":\"{}\",\"min\":{},\"max\":{},\
             \"buckets\":{counts}}}",
            s.count, s.sum, s.sum_sq, s.min, s.max,
        )
    }

    /// Reconstructs a histogram from [`Histogram::to_exact_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_exact_json(v: &json::Value) -> Result<Histogram, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("histogram: missing {k}"));
        let int = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("histogram: {k} not a u64"))
        };
        let big = |k: &str| -> Result<u128, String> {
            field(k)?
                .as_str()
                .and_then(|s| s.parse::<u128>().ok())
                .ok_or_else(|| format!("histogram: {k} not a u128 string"))
        };
        let counts = field("buckets")?
            .as_array()
            .ok_or("histogram: buckets not an array")?
            .iter()
            .map(|c| c.as_u64().ok_or("histogram: bucket count not a u64"))
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(Histogram {
            summary: Summary {
                count: int("count")?,
                sum: big("sum")?,
                sum_sq: big("sum_sq")?,
                min: int("min")?,
                max: int("max")?,
            },
            counts,
        })
    }

    /// Renders the histogram as a JSON object.
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
             \"stddev\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            s.count,
            s.sum,
            s.min,
            s.max,
            json::num(s.mean()),
            json::num(s.stddev()),
            self.p50(),
            self.p95(),
            self.p99(),
        )
    }
}

/// A registry of named counters and distributions produced by a simulation
/// run.
///
/// Names are free-form dotted strings (`"pm.write.lpo"`). The registry is
/// ordered (BTreeMap) so reports are stable.
///
/// # Example
///
/// ```
/// use asap_sim::Stats;
///
/// let mut s = Stats::new();
/// s.add("pm.write", 3);
/// s.bump("pm.write");
/// assert_eq!(s.get("pm.write"), 4);
/// s.sample("region.cycles", 120);
/// assert_eq!(s.summary("region.cycles").unwrap().mean(), 120.0);
/// assert_eq!(s.histogram("region.cycles").unwrap().p50(), 120);
/// ```
#[derive(Debug, Default, PartialEq)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    summaries: BTreeMap<String, Histogram>,
}

/// `clone_from` is the restore path of machine snapshots, where the
/// destination almost always holds the same names as the source: values
/// are then overwritten in place, allocating nothing.
impl Clone for Stats {
    fn clone(&self) -> Self {
        Stats {
            counters: self.counters.clone(),
            summaries: self.summaries.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        clone_map_from(&mut self.counters, &src.counters);
        clone_map_from(&mut self.summaries, &src.summaries);
    }
}

/// Copies `src` into `dst` value by value when both hold the same keys,
/// else falls back to a full clone.
fn clone_map_from<V: Clone>(dst: &mut BTreeMap<String, V>, src: &BTreeMap<String, V>) {
    if dst.len() == src.len() && dst.keys().eq(src.keys()) {
        for (d, s) in dst.values_mut().zip(src.values()) {
            d.clone_from(s);
        }
    } else {
        *dst = src.clone();
    }
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Adds `v` to counter `name`, creating it at zero if absent.
    ///
    /// The existing-counter path avoids allocating: counters are bumped
    /// millions of times per run but created only once each.
    pub fn add(&mut self, name: &str, v: u64) {
        if v == 0 {
            return;
        }
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_owned(), v);
        }
    }

    /// Increments counter `name` by one.
    pub fn bump(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a sample into distribution `name` (allocation-free once the
    /// distribution exists, like [`add`](Self::add)).
    pub fn sample(&mut self, name: &str, v: u64) {
        if let Some(h) = self.summaries.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::default();
            h.record(v);
            self.summaries.insert(name.to_owned(), h);
        }
    }

    /// Returns the summary of distribution `name`, if any samples were
    /// recorded.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.summaries.get(name).map(|h| h.summary())
    }

    /// Returns the full histogram of distribution `name`, if any samples
    /// were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.summaries.get(name)
    }

    /// Discards all samples of distribution `name` (e.g. to exclude a setup
    /// phase from steady-state measurements).
    pub fn reset_summary(&mut self, name: &str) {
        self.summaries.remove(name);
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over all distribution summaries in name order.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.summaries
            .iter()
            .map(|(k, v)| (k.as_str(), v.summary()))
    }

    /// Iterates over all distributions in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.summaries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry into this one. Counters add; distributions
    /// merge per bucket, so merged quantiles equal quantiles of the
    /// concatenated samples.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.summaries {
            self.summaries.entry(k.clone()).or_default().merge_from(h);
        }
    }

    /// Renders the whole registry losslessly (counters verbatim, each
    /// distribution via [`Histogram::to_exact_json`]), compact and
    /// canonical: [`Stats::from_exact_json`] reconstructs an identical
    /// registry, and identical registries serialize byte-identically.
    pub fn to_exact_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json::escape(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json::escape(k), h.to_exact_json()));
        }
        out.push_str("}}");
        out
    }

    /// Reconstructs a registry from [`Stats::to_exact_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_exact_json(v: &json::Value) -> Result<Stats, String> {
        let counters = v
            .get("counters")
            .and_then(json::Value::as_object)
            .ok_or("stats: missing counters object")?
            .iter()
            .map(|(k, c)| {
                c.as_u64()
                    .map(|c| (k.clone(), c))
                    .ok_or_else(|| format!("stats: counter {k} not a u64"))
            })
            .collect::<Result<BTreeMap<String, u64>, _>>()?;
        let summaries = v
            .get("histograms")
            .and_then(json::Value::as_object)
            .ok_or("stats: missing histograms object")?
            .iter()
            .map(|(k, h)| Histogram::from_exact_json(h).map(|h| (k.clone(), h)))
            .collect::<Result<BTreeMap<String, Histogram>, _>>()?;
        Ok(Stats {
            counters,
            summaries,
        })
    }

    /// Renders the whole registry as a JSON object:
    /// `{"counters": {...}, "histograms": {name: {count, ..., p99}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json::escape(k), v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json::escape(k), h.to_json()));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, h) in &self.summaries {
            let s = h.summary();
            writeln!(
                f,
                "{k}: n={} mean={:.1} min={} p50={} p95={} p99={} max={}",
                s.count,
                s.mean(),
                s.min,
                h.p50(),
                h.p95(),
                h.p99(),
                s.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_matches_clone_with_same_and_different_keys() {
        let mut src = Stats::new();
        src.add("a", 2);
        src.add("b", 5);
        src.sample("lat", 40);
        src.sample("lat", 9000);
        // Same keys, other values: the in-place path.
        let mut same = src.clone();
        same.add("a", 7);
        same.sample("lat", 1 << 40);
        // Extra and missing keys: the fallback path.
        let mut other = Stats::new();
        other.add("a", 1);
        other.add("zz", 3);
        other.sample("other", 1);
        for mut dst in [same, other] {
            dst.clone_from(&src);
            assert_eq!(dst, src);
            let mut fresh = src.clone();
            for s in [&mut dst, &mut fresh] {
                s.add("a", 1);
                s.add("c", 4);
                s.sample("lat", 77);
                s.sample("new", 3);
            }
            assert_eq!(dst, fresh);
            assert_eq!(dst.to_exact_json(), fresh.to_exact_json());
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.add("a", 2);
        s.add("a", 3);
        s.bump("a");
        assert_eq!(s.get("a"), 6);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn add_zero_does_not_create_counter() {
        let mut s = Stats::new();
        s.add("z", 0);
        assert_eq!(s.counters().count(), 0);
    }

    #[test]
    fn summary_tracks_min_max_mean() {
        let mut s = Stats::new();
        s.sample("lat", 10);
        s.sample("lat", 30);
        s.sample("lat", 20);
        let sum = s.summary("lat").unwrap();
        assert_eq!(sum.count, 3);
        assert_eq!(sum.min, 10);
        assert_eq!(sum.max, 30);
        assert!((sum.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_mean_is_zero() {
        assert_eq!(Summary::default().mean(), 0.0);
        assert_eq!(Summary::default().variance(), 0.0);
        assert_eq!(Summary::default().stddev(), 0.0);
    }

    #[test]
    fn variance_matches_definition() {
        let mut s = Summary::default();
        for v in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            s.record(v);
        }
        // Classic example: mean 5, population variance 4, stddev 2.
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert!((s.stddev() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn variance_zero_for_constant_samples() {
        let mut s = Summary::default();
        for _ in 0..100 {
            s.record(1_000_000);
        }
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_combines_both_kinds() {
        let mut a = Stats::new();
        a.add("c", 1);
        a.sample("s", 5);
        let mut b = Stats::new();
        b.add("c", 2);
        b.sample("s", 15);
        b.sample("t", 1);
        a.merge(&b);
        assert_eq!(a.get("c"), 3);
        let s = a.summary("s").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 20);
        assert_eq!(a.summary("t").unwrap().count, 1);
    }

    #[test]
    fn display_lists_everything() {
        let mut s = Stats::new();
        s.add("x", 1);
        s.sample("y", 2);
        let out = s.to_string();
        assert!(out.contains("x = 1"));
        assert!(out.contains("y: n=1"));
    }

    #[test]
    fn reset_summary_discards_samples() {
        let mut s = Stats::new();
        s.sample("x", 5);
        s.reset_summary("x");
        assert!(s.summary("x").is_none());
        s.sample("x", 7);
        assert_eq!(s.summary("x").unwrap().count, 1);
    }

    #[test]
    fn counters_iterate_in_name_order() {
        let mut s = Stats::new();
        s.add("b", 1);
        s.add("a", 1);
        let names: Vec<&str> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn bucket_index_monotone_and_bounds_consistent() {
        let mut prev = None;
        for v in (0..2048u64).chain([1 << 20, (1 << 20) + 1, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            if let Some((pv, pi)) = prev {
                assert!(i >= pi, "index not monotone at {pv}->{v}");
            }
            prev = Some((v, i));
        }
    }

    #[test]
    fn small_values_have_exact_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile(q) as f64;
            assert!(
                (est - exact).abs() / exact <= 0.125,
                "q={q} est={est} exact={exact}"
            );
        }
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [3u64, 17, 400, 12_345, 9] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 1 << 30, 250, 250, 8] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, both);
    }

    mod merge_properties {
        use super::*;
        use proptest::prelude::*;

        fn hist_of(samples: &[u64]) -> Histogram {
            let mut h = Histogram::default();
            for &v in samples {
                h.record(v);
            }
            h
        }

        proptest! {
            // Per-bucket merge is exact: a merged histogram is
            // indistinguishable from one built over the concatenated
            // sample stream — counts, sum, max, and every quantile.
            #[test]
            fn merged_equals_histogram_of_concatenation(
                a in proptest::collection::vec(0u64..=u64::MAX, 0..200),
                b in proptest::collection::vec(0u64..1_000_000, 0..200),
            ) {
                let mut merged = hist_of(&a);
                merged.merge_from(&hist_of(&b));
                let mut concat = a.clone();
                concat.extend_from_slice(&b);
                let both = hist_of(&concat);
                prop_assert_eq!(&merged, &both);
                for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                    prop_assert_eq!(merged.quantile(q), both.quantile(q));
                }
                prop_assert_eq!(merged.count(), a.len() as u64 + b.len() as u64);
                prop_assert_eq!(merged.max(), both.max());
            }

            // Merging is commutative: order of operands never matters.
            #[test]
            fn merge_is_commutative(
                a in proptest::collection::vec(0u64..=u64::MAX, 0..120),
                b in proptest::collection::vec(0u64..=u64::MAX, 0..120),
            ) {
                let mut ab = hist_of(&a);
                ab.merge_from(&hist_of(&b));
                let mut ba = hist_of(&b);
                ba.merge_from(&hist_of(&a));
                prop_assert_eq!(&ab, &ba);
            }
        }
    }

    #[test]
    fn quantile_empty_histogram_is_zero() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn quantile_single_sample_is_that_sample() {
        let mut h = Histogram::default();
        h.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42);
        }
    }

    #[test]
    fn quantile_extremes_hit_min_and_max() {
        let mut h = Histogram::default();
        for v in [3u64, 10, 17, 1000, 65_536] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(1.0), 65_536);
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(-1.0), 3);
        assert_eq!(h.quantile(2.0), 65_536);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::default();
        for v in 0..500u64 {
            h.record(v * v % 10_000 + 1);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1], "quantiles not monotone: {vals:?}");
        }
    }

    #[test]
    fn merged_histogram_quantiles_stay_monotone_and_bounded() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 1..200u64 {
            a.record(v);
        }
        for v in 5_000..5_300u64 {
            b.record(v);
        }
        a.merge_from(&b);
        let (p50, p95, p99) = (a.quantile(0.5), a.quantile(0.95), a.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        assert_eq!(a.quantile(0.0), 1);
        assert_eq!(a.quantile(1.0), 5_299);
        // Median of the merged distribution lies in b's range (300 of 499
        // samples are from b), p50 rank = ceil(0.5*499) = 250 → b's bucket.
        assert!(p50 >= 200, "median should come from the merged-in data");
    }

    #[test]
    fn exact_json_round_trips_bit_identically() {
        let mut s = Stats::new();
        s.add("pm.write.total", u64::MAX);
        s.add("plain", 3);
        s.sample("region.cycles", 0);
        s.sample("region.cycles", u64::MAX);
        s.sample("region.cycles", u64::MAX); // sum_sq saturates u128
        s.sample("weird \"name\"\n", 42);
        let text = s.to_exact_json();
        let back = Stats::from_exact_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, s);
        // The form is canonical: re-serialization is byte-identical.
        assert_eq!(back.to_exact_json(), text);
        // The derived report of the reconstruction matches too.
        assert_eq!(back.to_json(), s.to_json());
        // Empty registry round-trips.
        let empty = Stats::new();
        let t = empty.to_exact_json();
        assert_eq!(
            Stats::from_exact_json(&json::parse(&t).unwrap()).unwrap(),
            empty
        );
    }

    #[test]
    fn exact_json_rejects_malformed() {
        let bad = [
            "{}",
            "{\"counters\":{},\"histograms\":{\"h\":{}}}",
            "{\"counters\":{\"c\":-1},\"histograms\":{}}",
            "{\"counters\":{\"c\":1.5},\"histograms\":{}}",
            "{\"counters\":{},\"histograms\":{\"h\":{\"count\":1,\"sum\":1,\
             \"sum_sq\":\"1\",\"min\":1,\"max\":1,\"buckets\":[1]}}}",
        ];
        for text in bad {
            let v = json::parse(text).expect("parses as JSON");
            assert!(Stats::from_exact_json(&v).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn stats_json_contains_quantiles() {
        let mut s = Stats::new();
        s.add("pm.write.total", 7);
        for v in 1..100u64 {
            s.sample("region.cycles", v * 10);
        }
        let j = s.to_json();
        assert!(j.contains("\"pm.write.total\": 7"));
        assert!(j.contains("\"region.cycles\""));
        assert!(j.contains("\"p50\":"));
        assert!(j.contains("\"p95\":"));
        assert!(j.contains("\"p99\":"));
    }
}
