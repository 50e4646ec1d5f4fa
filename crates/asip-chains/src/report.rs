//! Aggregated sequence reports (the data behind Figures 3–6 and Table 2).

use crate::detect::{DetectorConfig, Occurrence};
use crate::signature::Signature;
use asip_opt::ScheduleGraph;
use std::collections::BTreeMap;

/// Aggregated statistics for one signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqStats {
    /// Total dynamic frequency in percent (sum over occurrences).
    pub frequency: f64,
    /// Number of distinct occurrences.
    pub occurrences: usize,
}

/// A per-graph sequence report: signatures with aggregated frequencies,
/// sorted by decreasing frequency (the order of the paper's figures).
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceReport {
    /// Benchmark / graph name.
    pub name: String,
    /// Entries sorted by decreasing frequency (ties: by signature).
    entries: Vec<(Signature, SeqStats)>,
    /// Frequency denominator (dynamic ops of the profiled run).
    pub total_profile_ops: u64,
}

impl SequenceReport {
    /// Aggregate raw occurrences into a report.
    ///
    /// For each signature the frequency sums a maximal set of mutually
    /// non-overlapping occurrences (heaviest first), so no op instance
    /// is counted twice within one sequence type and per-signature
    /// frequencies are genuine percentages of execution time.
    pub fn from_occurrences(
        graph: &ScheduleGraph,
        occurrences: &[Occurrence],
        _config: &DetectorConfig,
    ) -> Self {
        let empty = std::collections::HashSet::new();
        let mut by_sig: BTreeMap<&Signature, Vec<&Occurrence>> = BTreeMap::new();
        for occ in occurrences {
            by_sig.entry(&occ.signature).or_default().push(occ);
        }
        let mut map: BTreeMap<Signature, SeqStats> = BTreeMap::new();
        for (sig, occs) in by_sig {
            let (frequency, selected) = crate::detect::select_non_overlapping(graph, &occs, &empty);
            if frequency > 0.0 {
                map.insert(
                    sig.clone(),
                    SeqStats {
                        frequency,
                        occurrences: selected.len(),
                    },
                );
            }
        }
        let mut entries: Vec<(Signature, SeqStats)> = map.into_iter().collect();
        entries.sort_by(|a, b| {
            b.1.frequency
                .partial_cmp(&a.1.frequency)
                .expect("frequencies are finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        SequenceReport {
            name: graph.name.clone(),
            entries,
            total_profile_ops: graph.total_profile_ops,
        }
    }

    /// Build a report directly from parts (used by [`crate::combine`](fn@crate::combine)).
    pub fn from_parts(
        name: String,
        mut entries: Vec<(Signature, SeqStats)>,
        total_profile_ops: u64,
    ) -> Self {
        entries.sort_by(|a, b| {
            b.1.frequency
                .partial_cmp(&a.1.frequency)
                .expect("frequencies are finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        SequenceReport {
            name,
            entries,
            total_profile_ops,
        }
    }

    /// Entries in decreasing-frequency order.
    pub fn entries(&self) -> &[(Signature, SeqStats)] {
        &self.entries
    }

    /// The top `n` signatures.
    pub fn top(&self, n: usize) -> impl Iterator<Item = (&Signature, &SeqStats)> {
        self.entries.iter().take(n).map(|(s, st)| (s, st))
    }

    /// Frequency of one signature (0 if absent).
    pub fn frequency_of(&self, sig: &Signature) -> f64 {
        self.entries
            .iter()
            .find(|(s, _)| s == sig)
            .map(|(_, st)| st.frequency)
            .unwrap_or(0.0)
    }

    /// The sorted frequency series (the Y values of Figures 3–4).
    pub fn series(&self) -> Vec<f64> {
        self.entries.iter().map(|(_, st)| st.frequency).collect()
    }

    /// Entries of a given chain length only.
    pub fn of_length(&self, len: usize) -> impl Iterator<Item = (&Signature, &SeqStats)> {
        self.entries
            .iter()
            .filter(move |(s, _)| s.len() == len)
            .map(|(s, st)| (s, st))
    }

    /// Entries at or above a frequency floor (the paper's Figures 5–6
    /// report only sequences ≥ 5%).
    pub fn at_least(&self, floor: f64) -> impl Iterator<Item = (&Signature, &SeqStats)> {
        self.entries
            .iter()
            .filter(move |(_, st)| st.frequency >= floor)
            .map(|(s, st)| (s, st))
    }

    /// Number of distinct signatures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no sequences were detected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{OpRef, SequenceDetector};
    use asip_opt::{NodeId, OptLevel, Optimizer};
    use asip_sim::{DataSet, Simulator};

    fn mac_report(level: OptLevel) -> SequenceReport {
        let program = asip_frontend::compile(
            "t",
            r#"
            input int x[32]; output int y[32];
            void main() {
                int i;
                for (i = 0; i < 32; i = i + 1) { y[i] = x[i] * 3 + 1; }
            }
            "#,
        )
        .expect("compiles");
        let mut data = DataSet::new();
        data.bind_ints("x", (0..32).collect());
        let exec = Simulator::new(&program).run(&data).expect("runs");
        let graph = Optimizer::new(level).run(&program, &exec.profile);
        SequenceDetector::new(DetectorConfig::default()).analyze(&graph)
    }

    #[test]
    fn entries_sorted_descending() {
        let r = mac_report(OptLevel::Pipelined);
        assert!(!r.is_empty());
        let series = r.series();
        for w in series.windows(2) {
            assert!(w[0] >= w[1], "series must be sorted descending");
        }
    }

    #[test]
    fn frequency_lookup_and_top() {
        let r = mac_report(OptLevel::None);
        let mac: Signature = "multiply-add".parse().expect("ok");
        assert!(r.frequency_of(&mac) > 0.0);
        assert!(r.frequency_of(&"fdivide-fdivide".parse().expect("ok")) == 0.0);
        let (top_sig, top_stats) = r.top(1).next().expect("nonempty");
        assert!(top_stats.frequency >= r.frequency_of(&mac));
        assert!(top_sig.len() >= 2);
    }

    #[test]
    fn length_and_floor_filters() {
        let r = mac_report(OptLevel::Pipelined);
        assert!(r.of_length(2).all(|(s, _)| s.len() == 2));
        assert!(r.of_length(3).all(|(s, _)| s.len() == 3));
        let floored: Vec<_> = r.at_least(5.0).collect();
        assert!(floored.iter().all(|(_, st)| st.frequency >= 5.0));
    }

    #[test]
    fn from_occurrences_sums_frequencies() {
        let program = asip_frontend::compile(
            "two",
            r#"
            input int a[2]; output int y[2];
            void main() {
                y[0] = (a[0] + 2) * 3;
                y[1] = (a[1] + 5) * 6;
            }
            "#,
        )
        .expect("compiles");
        let mut data = DataSet::new();
        data.bind_ints("a", vec![10, 20]);
        let exec = Simulator::new(&program).run(&data).expect("runs");
        let graph = Optimizer::new(OptLevel::None).run(&program, &exec.profile);
        let det = SequenceDetector::new(DetectorConfig::default());
        let occ = det.occurrences(&graph);
        let am: Signature = "add-multiply".parse().expect("ok");
        let n = occ.iter().filter(|o| o.signature == am).count();
        assert_eq!(n, 2, "two separate add-multiply occurrences");
        let report = det.analyze(&graph);
        let stats = report
            .entries()
            .iter()
            .find(|(s, _)| *s == am)
            .map(|(_, st)| *st)
            .expect("present");
        assert_eq!(stats.occurrences, 2);
        let expected: f64 = occ
            .iter()
            .filter(|o| o.signature == am)
            .map(|o| o.frequency(graph.total_profile_ops))
            .sum();
        assert!((stats.frequency - expected).abs() < 1e-12);
    }

    #[test]
    fn from_parts_resorts() {
        let a: Signature = "add-add".parse().expect("ok");
        let b: Signature = "multiply-add".parse().expect("ok");
        let r = SequenceReport::from_parts(
            "x".into(),
            vec![
                (
                    a.clone(),
                    SeqStats {
                        frequency: 1.0,
                        occurrences: 1,
                    },
                ),
                (
                    b.clone(),
                    SeqStats {
                        frequency: 9.0,
                        occurrences: 1,
                    },
                ),
            ],
            100,
        );
        assert_eq!(r.entries()[0].0, b);
        let _ = OpRef {
            node: NodeId(0),
            index: 0,
        };
    }
}
