//! Perf-baseline bookkeeping: parse the bench harness's JSON summary,
//! diff it against a recorded baseline, and flag regressions.
//!
//! The root `benches/explore.rs` harness writes a flat JSON object of
//! named series (milliseconds, ops/second, counters) to
//! `target/asip-bench-explore.json`. A blessed copy lives in
//! `benches/baseline.json`; this module is the shared comparison engine
//! behind both the bench's end-of-run report and the `asip-bench`
//! `perf` gating binary CI runs after `cargo bench --bench explore`
//! (see `docs/perf.md` for the workflow).
//!
//! Series are compared *direction-aware* by key suffix:
//!
//! - `*_ms` — lower is better; a regression is a current value above
//!   `baseline * (1 + tolerance)`, ignored below an absolute noise
//!   floor ([`MS_NOISE_FLOOR`]) so sub-millisecond warm-cache series
//!   don't flap;
//! - `*_ops_per_sec` — higher is better; a regression is a current
//!   value below `baseline * (1 - tolerance)`;
//! - `*_ratio` — lower is better, with its own absolute noise floor
//!   ([`RATIO_NOISE_FLOOR`]): ratios of two timed series (e.g.
//!   `warm_over_cold_ratio`) compound both sides' jitter, so small
//!   absolute wobble never gates;
//! - everything else (`schema`, counters like `*_hits`, `*_ops`) is
//!   informational and never gates.
//!
//! A perf-tracked series present in the baseline but missing from the
//! current summary is a regression (a series must not silently
//! disappear); new series are informational until blessed into the
//! baseline.
//!
//! ```
//! use asip_explorer::perf::{compare, parse_summary};
//!
//! let baseline = parse_summary(r#"{ "schema": 1, "sim_ops_per_sec": 100.0 }"#).unwrap();
//! let fast = parse_summary(r#"{ "schema": 1, "sim_ops_per_sec": 300.0 }"#).unwrap();
//! let slow = parse_summary(r#"{ "schema": 1, "sim_ops_per_sec": 50.0 }"#).unwrap();
//! assert!(compare(&baseline, &fast, 25.0).is_pass());
//! assert!(!compare(&baseline, &slow, 25.0).is_pass());
//! ```

use std::fmt;
use std::path::Path;

/// Millisecond series ignore absolute deltas below this (warm-cache
/// series sit near 0.1 ms, where relative tolerances are meaningless).
pub const MS_NOISE_FLOOR: f64 = 2.0;

/// Ratio series (`*_ratio`) ignore absolute deltas below this. Ratios
/// of two timed series compound both sides' jitter, so small absolute
/// wobble around the baseline must not gate.
pub const RATIO_NOISE_FLOOR: f64 = 0.05;

/// The default regression tolerance, in percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 25.0;

/// How a series' values are judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller values are better (`*_ms`).
    LowerIsBetter,
    /// Larger values are better (`*_ops_per_sec`).
    HigherIsBetter,
    /// Not a perf series; never gates.
    Informational,
}

/// The gating direction of a series, by key suffix.
pub fn direction_of(key: &str) -> Direction {
    if key.ends_with("_ms") || key.ends_with("_ratio") {
        Direction::LowerIsBetter
    } else if key.ends_with("_ops_per_sec") {
        Direction::HigherIsBetter
    } else {
        Direction::Informational
    }
}

/// The absolute noise floor a lower-is-better series must clear before
/// a relative overshoot counts as a regression.
fn noise_floor_of(key: &str) -> f64 {
    if key.ends_with("_ratio") {
        RATIO_NOISE_FLOOR
    } else {
        MS_NOISE_FLOOR
    }
}

/// A parsed bench summary: ordered `(series, value)` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfSummary {
    /// The series in file order.
    pub series: Vec<(String, f64)>,
}

impl PerfSummary {
    /// Look up one series.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.series.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Parse the bench harness's flat JSON summary: one object, string
/// keys, numeric values. This is a purpose-built reader, strict enough
/// to reject anything the harness would not have written.
///
/// # Errors
///
/// A human-readable description of the first malformed token.
pub fn parse_summary(json: &str) -> Result<PerfSummary, String> {
    let mut rest = json.trim();
    rest = rest
        .strip_prefix('{')
        .ok_or_else(|| "expected `{`".to_string())?
        .trim_end();
    rest = rest
        .strip_suffix('}')
        .ok_or_else(|| "expected closing `}`".to_string())?
        .trim();
    let mut series = Vec::new();
    if rest.is_empty() {
        return Ok(PerfSummary { series });
    }
    for (i, pair) in rest.split(',').enumerate() {
        let pair = pair.trim();
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("entry {i}: expected `\"key\": value`, got `{pair}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("entry {i}: key must be a quoted string"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("entry {i} (`{key}`): bad number: {e}"))?;
        series.push((key.to_string(), value));
    }
    Ok(PerfSummary { series })
}

/// Read and parse a summary file.
///
/// # Errors
///
/// I/O failures and parse failures, as a description string naming the
/// path.
pub fn load_summary(path: &Path) -> Result<PerfSummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_summary(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One series' baseline-vs-current verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDelta {
    /// Series name.
    pub key: String,
    /// Baseline value, if the series existed in the baseline.
    pub baseline: Option<f64>,
    /// Current value, if the series exists in the current summary.
    pub current: Option<f64>,
    /// Gating direction.
    pub direction: Direction,
    /// Signed change in percent (positive = value grew); `None` when
    /// either side is missing or the baseline is zero.
    pub change_pct: Option<f64>,
    /// True when this delta violates the tolerance.
    pub regressed: bool,
}

/// A full baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfComparison {
    /// Per-series verdicts, baseline order first, then new series.
    pub deltas: Vec<SeriesDelta>,
    /// The tolerance the comparison ran with, in percent.
    pub tolerance_pct: f64,
}

impl PerfComparison {
    /// The regressed series.
    pub fn regressions(&self) -> impl Iterator<Item = &SeriesDelta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// True when no perf series regressed beyond the tolerance.
    pub fn is_pass(&self) -> bool {
        self.regressions().next().is_none()
    }
}

/// Compare a current summary against a baseline with the given
/// tolerance (percent).
pub fn compare(
    baseline: &PerfSummary,
    current: &PerfSummary,
    tolerance_pct: f64,
) -> PerfComparison {
    let tol = tolerance_pct / 100.0;
    let mut deltas = Vec::new();
    for (key, &(_, base)) in baseline.series.iter().map(|p| (&p.0, p)) {
        if key == "schema" {
            continue;
        }
        let direction = direction_of(key);
        let cur = current.get(key);
        let (change_pct, regressed) = match (direction, cur) {
            (Direction::Informational, _) => (change_pct(base, cur), false),
            // a tracked series must not silently disappear
            (_, None) => (None, true),
            (Direction::LowerIsBetter, Some(c)) => {
                let over = c > base * (1.0 + tol) && (c - base) > noise_floor_of(key);
                (change_pct(base, cur), over)
            }
            (Direction::HigherIsBetter, Some(c)) => (change_pct(base, cur), c < base * (1.0 - tol)),
        };
        deltas.push(SeriesDelta {
            key: key.clone(),
            baseline: Some(base),
            current: cur,
            direction,
            change_pct,
            regressed,
        });
    }
    for (key, &value) in current.series.iter().map(|p| (&p.0, &p.1)) {
        if key == "schema" || baseline.get(key).is_some() {
            continue;
        }
        deltas.push(SeriesDelta {
            key: key.clone(),
            baseline: None,
            current: Some(value),
            direction: direction_of(key),
            change_pct: None,
            regressed: false,
        });
    }
    PerfComparison {
        deltas,
        tolerance_pct,
    }
}

fn change_pct(base: f64, current: Option<f64>) -> Option<f64> {
    let c = current?;
    (base != 0.0).then(|| (c - base) / base * 100.0)
}

impl fmt::Display for PerfComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<32} {:>14} {:>14} {:>9}  verdict",
            "series", "baseline", "current", "change"
        )?;
        for d in &self.deltas {
            let fmt_v = |v: Option<f64>| match v {
                Some(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            };
            let change = match d.change_pct {
                Some(c) => format!("{c:+.1}%"),
                None => "-".to_string(),
            };
            let verdict = if d.regressed {
                "REGRESSED"
            } else {
                match d.direction {
                    Direction::Informational => "info",
                    _ if d.baseline.is_none() => "new",
                    _ => "ok",
                }
            };
            writeln!(
                f,
                "{:<32} {:>14} {:>14} {:>9}  {verdict}",
                d.key,
                fmt_v(d.baseline),
                fmt_v(d.current),
                change
            )?;
        }
        write!(
            f,
            "tolerance {:.0}%: {}",
            self.tolerance_pct,
            if self.is_pass() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} regression(s))", self.regressions().count())
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(pairs: &[(&str, f64)]) -> PerfSummary {
        PerfSummary {
            series: pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn parses_the_harness_format() {
        let s = parse_summary(
            "{\n  \"schema\": 1,\n  \"cold_explore_all_ms\": 159.842,\n  \"sim_ops_per_sec\": 80568877.094\n}\n",
        )
        .expect("parses");
        assert_eq!(s.get("schema"), Some(1.0));
        assert_eq!(s.get("cold_explore_all_ms"), Some(159.842));
        assert_eq!(s.series.len(), 3);
        assert!(parse_summary("not json").is_err());
        assert!(parse_summary("{ \"unquoted: 1 }").is_err());
        assert!(parse_summary("{ \"k\": \"str\" }").is_err());
        assert_eq!(parse_summary("{}").expect("empty ok").series.len(), 0);
    }

    #[test]
    fn directions_by_suffix() {
        assert_eq!(
            direction_of("cold_explore_all_ms"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_of("sim_ops_per_sec"), Direction::HigherIsBetter);
        assert_eq!(
            direction_of("store_warm_prefetch_hits"),
            Direction::Informational
        );
        assert_eq!(direction_of("sim_dynamic_ops"), Direction::Informational);
        assert_eq!(
            direction_of("warm_over_cold_ratio"),
            Direction::LowerIsBetter
        );
    }

    #[test]
    fn regressions_respect_direction_and_tolerance() {
        let base = summary(&[("a_ms", 100.0), ("b_ops_per_sec", 1000.0)]);
        // 20% slower / 20% fewer ops: inside a 25% tolerance
        let ok = summary(&[("a_ms", 120.0), ("b_ops_per_sec", 800.0)]);
        assert!(compare(&base, &ok, 25.0).is_pass());
        // 30% slower: out
        let slow = summary(&[("a_ms", 130.0), ("b_ops_per_sec", 1000.0)]);
        let c = compare(&base, &slow, 25.0);
        assert!(!c.is_pass());
        assert_eq!(c.regressions().count(), 1);
        assert_eq!(c.regressions().next().expect("one").key, "a_ms");
        // 30% fewer ops/s: out
        let fewer = summary(&[("a_ms", 100.0), ("b_ops_per_sec", 700.0)]);
        assert!(!compare(&base, &fewer, 25.0).is_pass());
        // improvements never gate
        let better = summary(&[("a_ms", 10.0), ("b_ops_per_sec", 9000.0)]);
        assert!(compare(&base, &better, 25.0).is_pass());
    }

    #[test]
    fn millisecond_noise_floor_absorbs_tiny_series() {
        // 0.1 ms → 0.3 ms is +200% but only 0.2 ms absolute: not a gate
        let base = summary(&[("warm_ms", 0.1)]);
        let wobble = summary(&[("warm_ms", 0.3)]);
        assert!(compare(&base, &wobble, 25.0).is_pass());
        // a real 100 ms → 300 ms blowup still gates
        let base = summary(&[("cold_ms", 100.0)]);
        let blowup = summary(&[("cold_ms", 300.0)]);
        assert!(!compare(&base, &blowup, 25.0).is_pass());
    }

    #[test]
    fn ratio_noise_floor_absorbs_small_absolute_wobble() {
        // 0.004 → 0.04 is +900% but only 0.036 absolute: not a gate
        let base = summary(&[("warm_over_cold_ratio", 0.004)]);
        let wobble = summary(&[("warm_over_cold_ratio", 0.04)]);
        assert!(compare(&base, &wobble, 25.0).is_pass());
        // a ratio that grows past the floor AND the tolerance gates
        let base = summary(&[("warm_over_cold_ratio", 0.2)]);
        let blowup = summary(&[("warm_over_cold_ratio", 0.5)]);
        assert!(!compare(&base, &blowup, 25.0).is_pass());
    }

    #[test]
    fn missing_tracked_series_regress_and_new_series_inform() {
        let base = summary(&[("a_ms", 100.0), ("n_hits", 5.0)]);
        let cur = summary(&[("b_ms", 1.0)]);
        let c = compare(&base, &cur, 25.0);
        // a_ms vanished → regression; n_hits vanished → informational
        assert_eq!(c.regressions().count(), 1);
        assert_eq!(c.regressions().next().expect("one").key, "a_ms");
        // b_ms is new → informational until blessed
        let new = c.deltas.iter().find(|d| d.key == "b_ms").expect("listed");
        assert!(!new.regressed);
        assert!(new.baseline.is_none());
    }

    #[test]
    fn informational_series_never_gate() {
        let base = summary(&[("prefetch_hits", 120.0), ("schema", 1.0)]);
        let cur = summary(&[("prefetch_hits", 3.0), ("schema", 2.0)]);
        assert!(compare(&base, &cur, 25.0).is_pass());
    }

    #[test]
    fn display_renders_a_table_with_verdicts() {
        let base = summary(&[("a_ms", 100.0)]);
        let cur = summary(&[("a_ms", 200.0)]);
        let c = compare(&base, &cur, 25.0);
        let text = c.to_string();
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("FAIL"));
        assert!(text.contains("+100.0%"));
        let pass = compare(&base, &base, 25.0).to_string();
        assert!(pass.contains("PASS"));
    }
}
