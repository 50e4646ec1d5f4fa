//! Incremental pareto-frontier search over the extension design space.
//!
//! The greedy selector in [`select`](crate::select) answers one
//! question — "which extensions for *this* budget?" — and a config
//! sweep re-answers it from scratch per grid point. This module
//! restructures selection as one *search* whose output answers every
//! grid point at once:
//!
//! - **Candidate expansion** is a best-first branch-and-bound over
//!   partial extension sets: a max-heap ordered by an admissible
//!   benefit bound (current benefit plus the minimum of a fractional
//!   area-knapsack completion and an opcode-slot completion) expands
//!   the most promising partial set first.
//! - **Pareto-front pruning**: every expanded node is a feasible
//!   extension set; the search keeps only the non-dominated points of
//!   the (area used, opcode slots used, benefit) space, and a popped
//!   node whose *bound* is already dominated by a frontier point is
//!   discarded without expansion.
//! - **Dominated-candidate elimination**: candidates that can never be
//!   chosen under the group's largest budget are counted and skipped by
//!   the branch step's feasibility check.
//! - **Shared evaluation**: one memo table per search memoizes
//!   coverage-report combination per level, [`ChainedUnit`] area/delay
//!   per signature, and static-match tests per signature, so a
//!   256-config sweep pays for each only once.
//!
//! Configs that agree on `(opt_level, clock_ns)` share one search (the
//! candidate list depends only on those two); each config then *queries*
//! the shared frontier for its best feasible point. Greedy solutions
//! seed the frontier, so a query is never worse than the greedy pick —
//! the guarantee [`AsipDesigner::design_from_report`] relies on for its
//! "byte-identical or strictly better" contract.

use crate::cost::ChainedUnit;
use crate::extension::{AsipDesign, IsaExtension};
use crate::rewrite;
use crate::select::{AsipDesigner, DesignConstraints};
use asip_chains::{SequenceReport, Signature};
use asip_ir::{DefUse, Program};
use asip_opt::{OptLevel, ScheduleGraph};
use std::collections::{BTreeMap, BinaryHeap};

/// Benefit improvements below this are ties: the greedy design is kept
/// so selection stays byte-identical wherever the frontier cannot
/// strictly beat it.
pub(crate) const EPS: f64 = 1e-9;

/// Expansion budget per search group. The subset space is tiny for
/// paper-sized reports, but a combined suite report can hold dozens of
/// candidates; the cap bounds worst-case work deterministically. Greedy
/// seeding keeps every query correct (never worse than greedy) even if
/// the cap is hit before exhaustion.
const MAX_EXPANSIONS: usize = 50_000;

/// Compiler feedback for one optimization level: every suite member's
/// schedule at that level, paired with its program.
///
/// All [`LevelFeedback`] entries passed to one
/// [`AsipDesigner::explore_design_space`] call must describe the *same*
/// program suite (the schedules differ per level, the programs do not);
/// the search memoizes static-match tests per signature across levels
/// on that invariant.
#[derive(Debug, Clone)]
pub struct LevelFeedback<'a> {
    /// The optimization level the schedules were produced at.
    pub level: OptLevel,
    /// `(schedule, program)` per suite member.
    pub suite: Vec<(&'a ScheduleGraph, &'a Program)>,
}

/// One non-dominated point of a search group's (area, opcode slots,
/// benefit) space, with the extension set that realizes it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The optimization level of the search group that produced this
    /// point.
    pub level: OptLevel,
    /// The clock period (ns) of the search group.
    pub clock_ns: f64,
    /// Total extension area of the set (gate equivalents).
    pub area: f64,
    /// Estimated benefit: the summed dynamic frequency (percent) the
    /// set's extensions cover.
    pub benefit: f64,
    /// Opcode slots used (number of extensions).
    pub extensions: usize,
    /// The extension set realizing this point.
    pub design: AsipDesign,
}

/// Work counters of one [`AsipDesigner::explore_design_space`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search groups run (one per distinct `(opt_level, clock_ns)`).
    pub groups: usize,
    /// Candidates considered across groups (post report filtering).
    pub candidates: usize,
    /// Candidates that could never fit the group's largest budget.
    pub eliminated: usize,
    /// Nodes expanded (popped and branched).
    pub expanded: usize,
    /// Nodes pruned by the dominance test on their bound.
    pub pruned: usize,
    /// Memo-table hits (shared cost/match/report evaluations reused).
    pub memo_hits: usize,
    /// Memo-table misses (evaluations actually performed).
    pub memo_misses: usize,
}

/// The pruned design space produced by
/// [`AsipDesigner::explore_design_space`]: per-config winning designs
/// plus the pareto frontier they were drawn from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesignSpace {
    /// `(constraints, winning design)` per requested config, in
    /// canonical (sorted, deduplicated) constraint order.
    pub configs: Vec<(DesignConstraints, AsipDesign)>,
    /// Non-dominated (area, slots, benefit) points across all search
    /// groups, sorted by (level, clock, area, slots).
    pub frontier: Vec<ParetoPoint>,
    /// Search work counters.
    pub stats: SearchStats,
}

impl DesignSpace {
    /// The winning design for `constraints`, if that exact config was
    /// part of the explored set.
    pub fn design_for(&self, constraints: &DesignConstraints) -> Option<&AsipDesign> {
        self.configs
            .iter()
            .find(|(c, _)| same_constraints(c, constraints))
            .map(|(_, d)| d)
    }

    /// Number of explored configs.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when no configs were explored.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The frontier points of one `(level, clock)` search group, in
    /// increasing-area order.
    pub fn frontier_at(
        &self,
        level: OptLevel,
        clock_ns: f64,
    ) -> impl Iterator<Item = &ParetoPoint> {
        self.frontier
            .iter()
            .filter(move |p| p.level == level && p.clock_ns.to_bits() == clock_ns.to_bits())
    }
}

/// Exact configuration identity (floats by bit pattern, like the
/// session cache keys).
fn same_constraints(a: &DesignConstraints, b: &DesignConstraints) -> bool {
    a.area_budget.to_bits() == b.area_budget.to_bits()
        && a.clock_ns.to_bits() == b.clock_ns.to_bits()
        && a.max_extensions == b.max_extensions
        && a.opt_level == b.opt_level
}

/// Canonical config order: by level, then area budget, clock, opcode
/// budget. Sorting (and deduplicating) the constraint set makes the
/// result — and any cache key folded over it — independent of caller
/// order. [`AsipDesigner::explore_design_space`] applies this itself;
/// callers that build cache keys over a grid should apply it too so
/// key identity matches result identity.
pub fn canonicalize_configs(configs: &[DesignConstraints]) -> Vec<DesignConstraints> {
    let mut out = configs.to_vec();
    out.sort_by(|a, b| {
        (a.opt_level.number())
            .cmp(&b.opt_level.number())
            .then_with(|| a.area_budget.total_cmp(&b.area_budget))
            .then_with(|| a.clock_ns.total_cmp(&b.clock_ns))
            .then_with(|| a.max_extensions.cmp(&b.max_extensions))
    });
    out.dedup_by(|a, b| same_constraints(a, b));
    out
}

// -- the per-search memo table -----------------------------------------

/// Shared evaluations of one design-space search: chained-unit costs
/// and static-match tests per signature. Keyed by signature only — the
/// program suite is fixed for the search (see [`LevelFeedback`]).
#[derive(Debug, Default)]
pub(crate) struct MemoTable {
    units: BTreeMap<Signature, (f64, f64)>,
    matchable: BTreeMap<Signature, bool>,
    hits: usize,
    misses: usize,
}

impl MemoTable {
    /// `(area, delay_ns)` of the chained unit implementing `sig`.
    fn unit(&mut self, sig: &Signature) -> (f64, f64) {
        if let Some(&cost) = self.units.get(sig) {
            self.hits += 1;
            return cost;
        }
        self.misses += 1;
        let unit = ChainedUnit::new(sig.classes().to_vec());
        let cost = (unit.area(), unit.delay_ns());
        self.units.insert(sig.clone(), cost);
        cost
    }

    /// Learn, for every fusable signature of `report` not yet memoized,
    /// whether it statically matches a fusable run in any program. The
    /// unknown signatures are probed together, program by program: each
    /// program's def-use index is built once, only while one of them is
    /// still unmatched, and dropped before the next program's.
    fn learn_matchable(&mut self, report: &SequenceReport, programs: &[&Program]) {
        let mut unknown: Vec<(&Signature, bool)> = Vec::new();
        for (sig, _) in report.entries() {
            if !rewrite::is_fusable_signature(sig) {
                continue;
            }
            if self.matchable.contains_key(sig) {
                self.hits += 1;
            } else {
                self.misses += 1;
                unknown.push((sig, false));
            }
        }
        for program in programs {
            if unknown.iter().all(|&(_, matched)| matched) {
                break;
            }
            let du = DefUse::new(program);
            for (sig, matched) in unknown.iter_mut().filter(|(_, matched)| !*matched) {
                *matched = rewrite::Rewriter::count_static_matches(program, &du, sig) > 0;
            }
        }
        for (sig, matched) in unknown {
            self.matchable.insert(sig.clone(), matched);
        }
    }

    fn counters(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }
}

/// Drop fusable candidates that never statically match any of
/// `programs` — the rewriter could not instantiate them, so spending
/// area on them is pure waste. Unfusable signatures pass through (the
/// selection core filters them anyway). Verdicts are memoized in
/// `memo` across calls.
pub(crate) fn retain_matchable(
    report: &SequenceReport,
    programs: &[&Program],
    memo: &mut MemoTable,
) -> SequenceReport {
    memo.learn_matchable(report, programs);
    SequenceReport::from_parts(
        report.name.clone(),
        report
            .entries()
            .iter()
            .filter(|(sig, _)| !rewrite::is_fusable_signature(sig) || memo.matchable[sig])
            .cloned()
            .collect(),
        report.total_profile_ops,
    )
}

// -- candidates --------------------------------------------------------

/// One selectable extension: a fusable signature that closes the
/// group's clock, with its estimated benefit (dynamic frequency) and
/// silicon cost.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub(crate) signature: Signature,
    pub(crate) benefit: f64,
    pub(crate) area: f64,
}

/// Build the candidate list for one `(report, clock)` pair: the same
/// filters and density order the greedy selector uses, so greedy index
/// sets and search index sets address the same list.
pub(crate) fn build_candidates(
    report: &SequenceReport,
    clock_ns: f64,
    memo: &mut MemoTable,
) -> Vec<Candidate> {
    let mut candidates: Vec<Candidate> = report
        .entries()
        .iter()
        .filter(|(sig, _)| rewrite::is_fusable_signature(sig))
        .filter_map(|(sig, stats)| {
            let (area, delay) = memo.unit(sig);
            if delay > clock_ns {
                return None;
            }
            Some(Candidate {
                signature: sig.clone(),
                benefit: stats.frequency,
                area,
            })
        })
        .collect();
    // benefit per area, descending — the greedy scan order (stable sort
    // keeps the report's frequency order on density ties)
    candidates.sort_by(|a, b| {
        (b.benefit / b.area)
            .partial_cmp(&(a.benefit / a.area))
            .expect("finite costs")
    });
    candidates
}

/// The greedy pick over a candidate list: scan in density order, skip
/// what does not fit. Returns chosen indices in scan (ascending)
/// order — exactly the selection order of the historical greedy core.
pub(crate) fn greedy_indices(
    candidates: &[Candidate],
    area_budget: f64,
    max_extensions: usize,
) -> Vec<u16> {
    let mut chosen = Vec::new();
    let mut area = 0.0;
    for (i, c) in candidates.iter().enumerate() {
        if chosen.len() >= max_extensions {
            break;
        }
        if area + c.area > area_budget {
            continue;
        }
        chosen.push(i as u16);
        area += c.area;
    }
    chosen
}

/// Materialize an extension set from chosen candidate indices
/// (ascending index order — the greedy selection order, so a design
/// built from greedy indices is byte-identical to the greedy design).
pub(crate) fn build_design(candidates: &[Candidate], chosen: &[u16]) -> AsipDesign {
    let mut design = AsipDesign::default();
    for &i in chosen {
        let c = &candidates[i as usize];
        design.extensions.push(IsaExtension {
            id: design.extensions.len() as u32,
            signature: c.signature.clone(),
            area: c.area,
            expected_benefit: c.benefit,
        });
        design.extension_area += c.area;
    }
    design
}

// Both sums fold from +0.0 rather than `Sum for f64`'s -0.0 identity:
// tie detection on the frontier is bit-exact, so the empty set must
// compare identical to the search root's literal 0.0.
pub(crate) fn benefit_of(candidates: &[Candidate], chosen: &[u16]) -> f64 {
    chosen
        .iter()
        .fold(0.0, |acc, &i| acc + candidates[i as usize].benefit)
}

fn area_of(candidates: &[Candidate], chosen: &[u16]) -> f64 {
    chosen
        .iter()
        .fold(0.0, |acc, &i| acc + candidates[i as usize].area)
}

// -- the best-first search ---------------------------------------------

/// A feasible extension set on (or once on) the pareto front.
#[derive(Debug, Clone)]
pub(crate) struct FrontPoint {
    pub(crate) area: f64,
    pub(crate) count: usize,
    pub(crate) benefit: f64,
    pub(crate) chosen: Vec<u16>,
}

/// `p` is at least as good as `q` on every axis.
fn dominates(p: &FrontPoint, q: &FrontPoint) -> bool {
    p.area <= q.area && p.count <= q.count && p.benefit >= q.benefit
}

fn ties(p: &FrontPoint, q: &FrontPoint) -> bool {
    p.area.to_bits() == q.area.to_bits() && p.count == q.count && p.benefit == q.benefit
}

/// Insert `q` unless a frontier point dominates it; remove points `q`
/// dominates. Exact (area, count, benefit) ties keep the
/// lexicographically smallest index set, so the surviving
/// representative never depends on heap pop order.
fn insert_point(front: &mut Vec<FrontPoint>, q: FrontPoint) -> bool {
    let beaten = front
        .iter()
        .any(|p| dominates(p, &q) && !(ties(p, &q) && q.chosen < p.chosen));
    if beaten {
        return false;
    }
    front.retain(|p| !dominates(&q, p));
    front.push(q);
    true
}

/// A partial extension set in the best-first queue, ordered by `bound`.
#[derive(Debug)]
struct Node {
    bound: f64,
    benefit: f64,
    area: f64,
    next: usize,
    chosen: Vec<u16>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound.to_bits() == other.bound.to_bits()
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound.total_cmp(&other.bound)
    }
}

/// Admissible completion bound from `candidates[from..]`: the minimum
/// of two relaxations — drop the slot cap (fractional area knapsack in
/// density order) and drop the area cap (the `slots_left` largest
/// remaining benefits). The true best completion satisfies both caps,
/// so it can exceed neither.
fn completion_bound(
    candidates: &[Candidate],
    from: usize,
    area_left: f64,
    slots_left: usize,
) -> f64 {
    if slots_left == 0 || from >= candidates.len() {
        return 0.0;
    }
    let mut fractional = 0.0;
    let mut area = area_left;
    for c in &candidates[from..] {
        if c.area <= area {
            fractional += c.benefit;
            area -= c.area;
        } else {
            fractional += c.benefit * (area / c.area).max(0.0);
            break;
        }
    }
    let mut benefits: Vec<f64> = candidates[from..].iter().map(|c| c.benefit).collect();
    benefits.sort_by(|a, b| b.total_cmp(a));
    let slot_capped: f64 = benefits.iter().take(slots_left).sum();
    fractional.min(slot_capped)
}

/// Result of one group search.
pub(crate) struct GroupSearch {
    pub(crate) front: Vec<FrontPoint>,
    pub(crate) expanded: usize,
    pub(crate) pruned: usize,
}

/// Best-first branch-and-bound over subsets of `candidates` under the
/// group caps, seeded with known-good solutions (the greedy picks).
pub(crate) fn search_group(
    candidates: &[Candidate],
    area_cap: f64,
    ext_cap: usize,
    seeds: impl IntoIterator<Item = Vec<u16>>,
) -> GroupSearch {
    let mut front: Vec<FrontPoint> = Vec::new();
    for chosen in seeds {
        let point = FrontPoint {
            area: area_of(candidates, &chosen),
            count: chosen.len(),
            benefit: benefit_of(candidates, &chosen),
            chosen,
        };
        insert_point(&mut front, point);
    }

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: completion_bound(candidates, 0, area_cap, ext_cap),
        benefit: 0.0,
        area: 0.0,
        next: 0,
        chosen: Vec::new(),
    });
    let mut expanded = 0;
    let mut pruned = 0;
    while let Some(node) = heap.pop() {
        if expanded >= MAX_EXPANSIONS {
            pruned += 1 + heap.len();
            break;
        }
        // a frontier point at least as small that already meets the
        // node's *bound* dominates every completion of this node
        let covered = front.iter().any(|p| {
            p.area <= node.area && p.count <= node.chosen.len() && p.benefit >= node.bound
        });
        if covered {
            pruned += 1;
            continue;
        }
        expanded += 1;
        insert_point(
            &mut front,
            FrontPoint {
                area: node.area,
                count: node.chosen.len(),
                benefit: node.benefit,
                chosen: node.chosen.clone(),
            },
        );
        if node.next >= candidates.len() {
            continue;
        }
        let c = &candidates[node.next];
        // include branch (when feasible under the group caps)
        if node.chosen.len() < ext_cap && node.area + c.area <= area_cap {
            let mut chosen = node.chosen.clone();
            chosen.push(node.next as u16);
            let benefit = node.benefit + c.benefit;
            let area = node.area + c.area;
            let bound = benefit
                + completion_bound(
                    candidates,
                    node.next + 1,
                    area_cap - area,
                    ext_cap - chosen.len(),
                );
            heap.push(Node {
                bound,
                benefit,
                area,
                next: node.next + 1,
                chosen,
            });
        }
        // exclude branch
        let bound = node.benefit
            + completion_bound(
                candidates,
                node.next + 1,
                area_cap - node.area,
                ext_cap - node.chosen.len(),
            );
        heap.push(Node {
            bound,
            benefit: node.benefit,
            area: node.area,
            next: node.next + 1,
            chosen: node.chosen,
        });
    }
    // deterministic, increasing-area presentation order
    front.sort_by(|a, b| {
        a.area
            .total_cmp(&b.area)
            .then_with(|| a.count.cmp(&b.count))
            .then_with(|| a.benefit.total_cmp(&b.benefit))
            .then_with(|| a.chosen.cmp(&b.chosen))
    });
    GroupSearch {
        front,
        expanded,
        pruned,
    }
}

/// The best frontier point feasible under `(area_budget, max_ext)`:
/// highest benefit, ties broken toward lower area, fewer slots, then
/// the lexicographically smallest index set.
pub(crate) fn best_in(
    front: &[FrontPoint],
    area_budget: f64,
    max_extensions: usize,
) -> Option<&FrontPoint> {
    front
        .iter()
        .filter(|p| p.area <= area_budget && p.count <= max_extensions)
        .max_by(|a, b| {
            a.benefit
                .total_cmp(&b.benefit)
                .then_with(|| b.area.total_cmp(&a.area))
                .then_with(|| b.count.cmp(&a.count))
                .then_with(|| b.chosen.cmp(&a.chosen))
        })
}

// -- the multi-config entry point --------------------------------------

impl AsipDesigner {
    /// Explore every config of a constraint grid in one incremental
    /// frontier search, sharing coverage reports, [`ChainedUnit`] cost
    /// evaluations and static-match tests across configs through a
    /// per-search memo table.
    ///
    /// `feedback` must hold one [`LevelFeedback`] (same program suite,
    /// that level's schedules) for every `opt_level` appearing in
    /// `configs`. Configs are canonicalized (sorted, deduplicated);
    /// configs sharing `(opt_level, clock_ns)` share one search group.
    /// Every per-config winner has estimated benefit greater than or
    /// equal to the greedy pick at the same budget, and equals the
    /// greedy design byte-for-byte when the frontier cannot strictly
    /// beat it — the same contract as
    /// [`AsipDesigner::design_from_report`].
    ///
    /// The designer's own `constraints` are not consulted (each config
    /// carries its own); its detector configuration drives the coverage
    /// studies.
    ///
    /// # Panics
    ///
    /// Panics when a config's level has no feedback entry, or a
    /// feedback suite is empty — both are caller contract violations,
    /// like the empty suite in
    /// [`AsipDesigner::design_from_schedules`].
    pub fn explore_design_space(
        &self,
        feedback: &[LevelFeedback<'_>],
        configs: &[DesignConstraints],
    ) -> DesignSpace {
        let configs = canonicalize_configs(configs);
        let mut stats = SearchStats::default();
        let mut memo = MemoTable::default();

        // one combined matchable report per distinct level
        let mut reports: BTreeMap<u8, SequenceReport> = BTreeMap::new();
        for config in &configs {
            let level = config.opt_level;
            if reports.contains_key(&level.number()) {
                stats.memo_hits += 1;
                continue;
            }
            stats.memo_misses += 1;
            let fb = feedback
                .iter()
                .find(|f| f.level == level)
                .unwrap_or_else(|| panic!("no feedback for {level:?}"));
            assert!(!fb.suite.is_empty(), "feedback suite must not be empty");
            let per_member: Vec<SequenceReport> = fb
                .suite
                .iter()
                .map(|(graph, _)| self.coverage_report(graph))
                .collect();
            let combined = asip_chains::combine(&per_member);
            let programs: Vec<&Program> = fb.suite.iter().map(|(_, program)| *program).collect();
            reports.insert(
                level.number(),
                retain_matchable(&combined, &programs, &mut memo),
            );
        }

        // group configs by (level, clock): same candidate list → one
        // shared search under the group's largest caps
        let mut groups: BTreeMap<(u8, u64), Vec<DesignConstraints>> = BTreeMap::new();
        for config in &configs {
            groups
                .entry((config.opt_level.number(), config.clock_ns.to_bits()))
                .or_default()
                .push(*config);
        }

        let mut searched: BTreeMap<(u8, u64), (Vec<Candidate>, Vec<FrontPoint>)> = BTreeMap::new();
        let mut frontier: Vec<ParetoPoint> = Vec::new();
        for (&(level_no, clock_bits), group) in &groups {
            let report = &reports[&level_no];
            let clock_ns = f64::from_bits(clock_bits);
            let candidates = build_candidates(report, clock_ns, &mut memo);
            let area_cap = group.iter().map(|c| c.area_budget).fold(0.0_f64, f64::max);
            let ext_cap = group.iter().map(|c| c.max_extensions).max().unwrap_or(0);
            stats.groups += 1;
            stats.candidates += candidates.len();
            stats.eliminated += candidates.iter().filter(|c| c.area > area_cap).count();
            let seeds = group
                .iter()
                .map(|c| greedy_indices(&candidates, c.area_budget, c.max_extensions));
            let search = search_group(&candidates, area_cap, ext_cap, seeds);
            stats.expanded += search.expanded;
            stats.pruned += search.pruned;
            let level = group[0].opt_level;
            for p in &search.front {
                frontier.push(ParetoPoint {
                    level,
                    clock_ns,
                    area: p.area,
                    benefit: p.benefit,
                    extensions: p.count,
                    design: build_design(&candidates, &p.chosen),
                });
            }
            searched.insert((level_no, clock_bits), (candidates, search.front));
        }

        // per-config winners, in canonical config order
        let mut out = Vec::with_capacity(configs.len());
        for config in &configs {
            let (candidates, front) =
                &searched[&(config.opt_level.number(), config.clock_ns.to_bits())];
            let greedy = greedy_indices(candidates, config.area_budget, config.max_extensions);
            let greedy_benefit = benefit_of(candidates, &greedy);
            let best = best_in(front, config.area_budget, config.max_extensions);
            let design = match best {
                Some(p) if p.benefit > greedy_benefit + EPS => build_design(candidates, &p.chosen),
                _ => build_design(candidates, &greedy),
            };
            out.push((*config, design));
        }

        let (memo_hits, memo_misses) = memo.counters();
        stats.memo_hits += memo_hits;
        stats.memo_misses += memo_misses;
        DesignSpace {
            configs: out,
            frontier,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asip_chains::SeqStats;

    fn report(entries: Vec<(&str, f64)>) -> SequenceReport {
        SequenceReport::from_parts(
            "t".into(),
            entries
                .into_iter()
                .map(|(s, f)| {
                    (
                        s.parse::<Signature>().expect("ok"),
                        SeqStats {
                            frequency: f,
                            occurrences: 1,
                        },
                    )
                })
                .collect(),
            1000,
        )
    }

    fn cands(entries: Vec<(&str, f64)>) -> Vec<Candidate> {
        let mut memo = MemoTable::default();
        build_candidates(&report(entries), 40.0, &mut memo)
    }

    #[test]
    fn search_beats_greedy_where_greedy_is_suboptimal() {
        // classic knapsack trap: the densest item blocks the best pair.
        // Areas: add-add ~2 adders, multiply-add, multiply-shift bigger.
        let candidates = cands(vec![
            ("add-add", 10.0),
            ("multiply-add", 9.5),
            ("multiply-shift", 9.0),
        ]);
        let add_add = candidates
            .iter()
            .position(|c| c.signature.to_string() == "add-add")
            .expect("present");
        // budget fits the two multiply chains OR add-add alone + one
        let budget = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != add_add)
            .map(|(_, c)| c.area)
            .sum::<f64>();
        let greedy = greedy_indices(&candidates, budget, 2);
        let search = search_group(&candidates, budget, 2, [greedy.clone()]);
        let best = best_in(&search.front, budget, 2).expect("non-empty");
        assert!(
            best.benefit >= benefit_of(&candidates, &greedy) - EPS,
            "search can never lose to its own seed"
        );
    }

    #[test]
    fn frontier_points_are_mutually_non_dominated() {
        let candidates = cands(vec![
            ("add-add", 10.0),
            ("add-subtract", 8.0),
            ("multiply-add", 12.0),
            ("add-shift", 5.0),
        ]);
        let search = search_group(&candidates, 1e9, 4, [Vec::new()]);
        let front = &search.front;
        assert!(!front.is_empty());
        for (i, p) in front.iter().enumerate() {
            for (j, q) in front.iter().enumerate() {
                if i != j {
                    assert!(
                        !(dominates(p, q)),
                        "frontier holds a dominated point: {q:?} under {p:?}"
                    );
                }
            }
        }
        // with effectively unbounded caps the full set is on the front
        let best = best_in(front, 1e9, 4).expect("non-empty");
        let total: f64 = candidates.iter().map(|c| c.benefit).sum();
        assert!((best.benefit - total).abs() < EPS);
    }

    #[test]
    fn completion_bound_is_admissible_under_slot_caps() {
        // one dense-but-cheap candidate, one huge-benefit candidate:
        // with one slot the bound must not drop below the best single
        let candidates = vec![
            Candidate {
                signature: "add-add".parse().expect("ok"),
                benefit: 1.0,
                area: 0.1,
            },
            Candidate {
                signature: "multiply-add".parse().expect("ok"),
                benefit: 100.0,
                area: 100.0,
            },
        ];
        let bound = completion_bound(&candidates, 0, 1000.0, 1);
        assert!(bound >= 100.0, "admissible bound covers the optimum");
        let search = search_group(&candidates, 1000.0, 1, [Vec::new()]);
        let best = best_in(&search.front, 1000.0, 1).expect("non-empty");
        assert!((best.benefit - 100.0).abs() < EPS, "slot-capped optimum");
    }

    #[test]
    fn greedy_indices_match_greedy_design() {
        let candidates = cands(vec![
            ("multiply-add", 20.0),
            ("add-add", 10.0),
            ("add-compare", 5.0),
        ]);
        let chosen = greedy_indices(&candidates, 6000.0, 4);
        let design = build_design(&candidates, &chosen);
        assert_eq!(design.len(), chosen.len());
        assert!((design.extension_area - area_of(&candidates, &chosen)).abs() < EPS);
        for (k, ext) in design.extensions.iter().enumerate() {
            assert_eq!(ext.id, k as u32, "ids follow selection order");
        }
    }

    #[test]
    fn empty_seed_point_is_positive_zero() {
        // `Sum for f64` folds from -0.0; an empty greedy seed (a budget
        // too small for any candidate) must still land on the same
        // bit pattern as the search root so bit-exact ties collapse
        let candidates = cands(vec![("multiply-add", 20.0)]);
        assert_eq!(area_of(&candidates, &[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(benefit_of(&candidates, &[]).to_bits(), 0.0f64.to_bits());
        let search = search_group(&candidates, 6000.0, 4, [Vec::new()]);
        let empty = &search.front[0];
        assert_eq!(empty.count, 0);
        assert_eq!(empty.area.to_bits(), 0.0f64.to_bits());
        assert_eq!(empty.benefit.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn canonical_config_order_is_caller_order_independent() {
        let a = DesignConstraints {
            area_budget: 1000.0,
            ..DesignConstraints::default()
        };
        let b = DesignConstraints {
            area_budget: 2000.0,
            ..DesignConstraints::default()
        };
        let fwd = canonicalize_configs(&[a, b, a]);
        let rev = canonicalize_configs(&[b, a, b, a]);
        assert_eq!(fwd.len(), 2);
        assert_eq!(
            fwd.iter()
                .map(|c| c.area_budget.to_bits())
                .collect::<Vec<_>>(),
            rev.iter()
                .map(|c| c.area_budget.to_bits())
                .collect::<Vec<_>>(),
        );
    }
}
