//! Pairwise strategy tournament under the debiased PandaLM judge.
//!
//! Every contestant dataset is judged against every other over the same
//! reference arena, producing a full win/tie/loss matrix. Two invariances
//! are enforced *by construction* rather than hoped for:
//!
//! * **Position-swap invariance** — each unordered contestant pair is
//!   evaluated exactly once, in canonical (lexicographic-by-name) order,
//!   through [`PandaLm::compare`]'s both-orders debiasing; the mirror cell
//!   is the exact [`Verdict::invert`](crate::pandalm::Verdict::invert) of
//!   the canonical one. Swapping who is "first" cannot change the matrix
//!   because presentation order is derived from names, never from
//!   argument order.
//! * **Relabeling invariance** — contestants are sorted by name before
//!   any comparison, and every comparison id is derived from the two
//!   names and the reference pair id. Feeding the same contestants in a
//!   different order yields bit-identical results.
//!
//! A contestant that dropped a pair (a filtering strategy) falls back to
//! the reference text for that pair: filtering keeps its survivors
//! unrevised, so removed pairs contribute their originals — which is
//! exactly why revision can beat filtering head-to-head (Table VII).

use crate::pandalm::PandaLm;
use crate::winrate::VerdictCounts;
use coachlm_data::pair::{Dataset, InstructionPair};
use coachlm_text::fxhash::{FxHashMap, FxHasher};
use serde::Serialize;
use std::hash::Hasher;

/// One tournament entrant: a strategy name and its output dataset.
#[derive(Debug, Clone, Copy)]
pub struct Contestant<'a> {
    /// Strategy name (matrix row/column label).
    pub name: &'a str,
    /// The strategy's output over the reference arena.
    pub dataset: &'a Dataset,
}

/// Full pairwise tournament outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TournamentResult {
    /// Contestant names in canonical (lexicographic) order; all matrix
    /// indices refer to this order.
    pub names: Vec<String>,
    /// `matrix[i][j]` holds the verdict counts of `names[i]` playing
    /// `names[j]`; the diagonal is empty and `matrix[j][i]` is the exact
    /// mirror (wins ↔ losses).
    pub matrix: Vec<Vec<VerdictCounts>>,
    /// Comparisons per cell — the reference arena size.
    pub comparisons: usize,
}

impl TournamentResult {
    /// The verdict counts of `a` against `b`, if both competed.
    pub fn counts(&self, a: &str, b: &str) -> Option<VerdictCounts> {
        let i = self.names.iter().position(|n| n == a)?;
        let j = self.names.iter().position(|n| n == b)?;
        self.matrix.get(i)?.get(j).copied()
    }

    /// Standings as `(name, mean WR1 across opponents)`, best first; ties
    /// break lexicographically so the order is total and deterministic.
    pub fn standings(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let row = self.matrix.get(i).map(Vec::as_slice).unwrap_or(&[]);
                let opponents: Vec<f64> = row
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, c)| c.rates().wr1)
                    .collect();
                let mean = if opponents.is_empty() {
                    0.5
                } else {
                    opponents.iter().sum::<f64>() / opponents.len() as f64
                };
                (name.clone(), mean)
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }
}

/// A stable comparison id from the unordered name pair and the reference
/// pair id — the judge's per-comparison RNG stream depends on nothing
/// else, which is what makes the matrix relabeling-invariant.
fn comparison_id(name_lo: &str, name_hi: &str, pair_id: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write(name_lo.as_bytes());
    h.write_u8(0xFF);
    h.write(name_hi.as_bytes());
    h.write_u8(0xFF);
    h.write_u64(pair_id);
    h.finish()
}

/// Runs the full round-robin: every unordered contestant pair, judged over
/// every reference pair with both-orders debiasing. Output is independent
/// of the order `contestants` are supplied in and of which member of a
/// pair is named first.
pub fn run_tournament(
    judge: &PandaLm,
    reference: &Dataset,
    contestants: &[Contestant<'_>],
) -> TournamentResult {
    let mut order: Vec<usize> = (0..contestants.len()).collect();
    order.sort_by(|&a, &b| {
        contestants
            .get(a)
            .map(|c| c.name)
            .cmp(&contestants.get(b).map(|c| c.name))
    });
    let sorted: Vec<Contestant<'_>> = order
        .iter()
        .filter_map(|&i| contestants.get(i).copied())
        .collect();
    let names: Vec<String> = sorted.iter().map(|c| c.name.to_string()).collect();

    // id → revised pair, per contestant; lookups only (no map iteration).
    let lookups: Vec<FxHashMap<u64, &InstructionPair>> = sorted
        .iter()
        .map(|c| c.dataset.pairs.iter().map(|p| (p.id, p)).collect())
        .collect();

    let n = sorted.len();
    let mut matrix = vec![vec![VerdictCounts::default(); n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let (name_lo, name_hi) = (names.get(i), names.get(j));
            let (Some(name_lo), Some(name_hi)) = (name_lo, name_hi) else {
                continue;
            };
            let mut lo_vs_hi = VerdictCounts::default();
            for pair in &reference.pairs {
                let lo = lookups
                    .get(i)
                    .and_then(|m| m.get(&pair.id))
                    .map_or(pair.response.as_str(), |p| p.response.as_str());
                let hi = lookups
                    .get(j)
                    .and_then(|m| m.get(&pair.id))
                    .map_or(pair.response.as_str(), |p| p.response.as_str());
                let id = comparison_id(name_lo, name_hi, pair.id);
                lo_vs_hi.add(judge.compare(id, &pair.instruction, lo, hi));
            }
            if let Some(row) = matrix.get_mut(i) {
                if let Some(cell) = row.get_mut(j) {
                    *cell = lo_vs_hi;
                }
            }
            if let Some(row) = matrix.get_mut(j) {
                if let Some(cell) = row.get_mut(i) {
                    *cell = mirror(lo_vs_hi);
                }
            }
        }
    }
    TournamentResult {
        names,
        matrix,
        comparisons: reference.pairs.len(),
    }
}

/// The mirror cell: every win becomes a loss and vice versa.
fn mirror(c: VerdictCounts) -> VerdictCounts {
    VerdictCounts {
        win: c.lose,
        tie: c.tie,
        lose: c.win,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::pair::Dataset;
    use coachlm_data::Category;

    const STRONG: &str = "The water cycle moves water through evaporation and rain. \
        This happens because the sun heats the oceans and lifts vapor into the sky. \
        For example, puddles vanish on sunny days. In summary, water circulates constantly. \
        I hope this helps; feel free to ask more.";
    const WEAK: &str = "Water moves around the sky sometimes.";

    fn arena(n: u64) -> Dataset {
        let pairs = (0..n)
            .map(|id| InstructionPair::new(id, format!("Explain topic {id}."), WEAK, Category(0)))
            .collect();
        Dataset {
            name: "arena".into(),
            pairs,
        }
    }

    fn improved(base: &Dataset, name: &str) -> Dataset {
        let pairs = base
            .pairs
            .iter()
            .map(|p| InstructionPair::new(p.id, p.instruction.clone(), STRONG, p.category))
            .collect();
        Dataset {
            name: name.into(),
            pairs,
        }
    }

    #[test]
    fn matrix_is_mirrored_and_relabeling_invariant() {
        let judge = PandaLm::new(3);
        let arena = arena(24);
        let good = improved(&arena, "good");
        let plain = arena.clone();
        let contestants = [
            Contestant {
                name: "revise",
                dataset: &good,
            },
            Contestant {
                name: "noop",
                dataset: &plain,
            },
        ];
        let ab = run_tournament(&judge, &arena, &contestants);
        let ba = run_tournament(&judge, &arena, &[contestants[1], contestants[0]]);
        assert_eq!(ab, ba, "supplying contestants in either order is identical");
        let rv = ab.counts("revise", "noop").unwrap();
        let vn = ab.counts("noop", "revise").unwrap();
        assert_eq!(rv.win, vn.lose);
        assert_eq!(rv.lose, vn.win);
        assert_eq!(rv.tie, vn.tie);
        assert!(rv.win > rv.lose, "the improved dataset wins the cell");
        let standings = ab.standings();
        assert_eq!(standings.first().map(|s| s.0.as_str()), Some("revise"));
    }

    #[test]
    fn dropped_pairs_fall_back_to_reference_text() {
        let judge = PandaLm::new(9);
        let arena = arena(16);
        // A "filter" that dropped everything is indistinguishable from the
        // no-op against the reference: all comparisons tie.
        let empty = Dataset {
            name: "empty".into(),
            pairs: Vec::new(),
        };
        let plain = arena.clone();
        let out = run_tournament(
            &judge,
            &arena,
            &[
                Contestant {
                    name: "filter",
                    dataset: &empty,
                },
                Contestant {
                    name: "noop",
                    dataset: &plain,
                },
            ],
        );
        // Dropping every pair must be bit-identical to submitting the
        // reference untouched, because dropped ids fall back to it.
        let full_copy = arena.clone();
        let same = run_tournament(
            &judge,
            &arena,
            &[
                Contestant {
                    name: "filter",
                    dataset: &full_copy,
                },
                Contestant {
                    name: "noop",
                    dataset: &plain,
                },
            ],
        );
        assert_eq!(out, same);
        let cell = out.counts("filter", "noop").unwrap();
        // Identical texts: judge noise may break a few ties, but the cell
        // is symmetric-by-expectation and tie-dominated.
        assert!(cell.tie > out.comparisons / 2);
    }
}
