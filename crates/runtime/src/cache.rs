//! The content-addressed revision cache.
//!
//! CoachLM's deployment traffic (§IV-A) is duplicate-heavy: identical
//! instruction pairs arrive constantly, and re-running the full
//! Clean → CoachRevise → ExpertAnnotate chain on every copy burns the
//! pipeline's most expensive stage on work it has already done. The
//! revision cache memoizes the *full per-item chain result* — the
//! representative's journal record: disposition, rewritten text, tags,
//! failure and per-stage outcomes — keyed by a content fingerprint of the
//! pair as it entered the chain, so a duplicate skips the whole stage
//! chain. Matching is exact: a hit is a pair with the same instruction,
//! response, and category, so every pair still gets its own revision
//! rather than a neighbour's.
//!
//! ## Determinism model
//!
//! The cache only exists in **content-keyed** runs
//! ([`ExecutorConfig::content_keyed`](crate::ExecutorConfig::content_keyed)),
//! where the per-(stage, item) RNG and the fault rolls key on the content
//! fingerprint instead of the pair id. Under that keying, two items with
//! identical input content produce byte-identical terminal states, tags,
//! failures, and stage counters — so replaying the first occurrence's
//! recorded effects onto a duplicate *is* executing it. That is what keeps
//! a cached run digest-identical to an uncached content-keyed run at any
//! thread count or queue capacity, faults included.
//!
//! The machinery is a deterministic **dedup pre-pass** at admission: the
//! borrowed input is scanned once, sequentially, in index order, before
//! any slot exists; the first non-shed occurrence of each content key
//! becomes the *representative*, and later occurrences are marked as hits
//! pointing at it. A hit's slot copies no input — it shares the
//! representative's original — and workers skip it entirely (it charges
//! zero virtual time — the throughput win); the ordered sink, which always
//! sees the representative before its duplicates, keeps the
//! representative's record (the one it journals, or the one a resumed run
//! replayed) and replays it onto each hit: the terminal state through the
//! same function that rebuilds a replayed item, the stage outcomes
//! through the same function that tallies an executed item's, and, under
//! a journal, the representative's stage outcomes in the hit's own record,
//! which is byte for byte the record executing the hit would write. So
//! crash-resume with a warm cache converges to the uninterrupted digest.
//!
//! Breakers are incompatible with the cache: degraded passthrough depends
//! on an item's *index* (epoch position), not its content, so duplicates
//! may legitimately diverge under a breaker. The executor rejects the
//! combination.

use coachlm_data::InstructionPair;
use coachlm_text::fxhash::{fingerprint_fields, FxHashMap};

/// The revision cache's matching policy: exact content only, so a hit
/// replays exactly what execution would have produced. Enabling it is
/// part of the journal fingerprint (hit decisions are part of run
/// outcomes); the policy itself has nothing to set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachePolicy;

impl CachePolicy {
    /// Exact-fingerprint matching, unbounded entries.
    pub fn exact() -> Self {
        CachePolicy
    }
}

/// Deterministic per-run revision-cache tallies.
///
/// Every non-shed input slot is classified exactly once — as a miss (it
/// became a representative) or as a hit. Replayed journal slots classify
/// the same way, so the tallies are identical between a fresh run and a
/// crash-resumed one; like `sim_elapsed`, they are deterministic but
/// excluded from the output digest (an uncached run reports all zeros).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Slots whose content fingerprint matched a representative exactly.
    pub exact_hits: u64,
    /// Slots that matched nothing (including every representative itself).
    pub misses: u64,
    /// Representatives inserted (distinct contents seen).
    pub entries: u64,
}

impl CacheStats {
    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.exact_hits
    }

    /// Total classified lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Hits as a fraction of lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    /// Adds another run's tallies into this one (shard merging).
    pub fn absorb(&mut self, other: CacheStats) {
        self.exact_hits += other.exact_hits;
        self.misses += other.misses;
        self.entries += other.entries;
    }
}

/// Content fingerprint of a pair as it entered the chain: instruction,
/// response, and category — deliberately *not* the pair id, so duplicate
/// submissions with fresh ids key identically. Built on the
/// `coachlm-text` fxhash field-fingerprint primitive.
pub(crate) fn content_key(pair: &InstructionPair) -> u64 {
    fingerprint_fields(&[
        pair.instruction.as_bytes(),
        pair.response.as_bytes(),
        &pair.category.0.to_le_bytes(),
    ])
}

/// A hit recorded on a live input index by the pre-pass: replay the
/// effects of the representative with item index `rep`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotHit {
    pub(crate) rep: usize,
}

/// Output of the dedup pre-pass.
pub(crate) struct CachePlan {
    /// Per input index, the hit it is (`None` for every other index).
    pub(crate) hits: Vec<Option<SlotHit>>,
    /// Representative *item index* → number of live dependent hits. The
    /// sink keeps a representative's record only while this is non-zero,
    /// decrementing per replay, so store memory is bounded by in-flight
    /// duplication, not by the input.
    pub(crate) uses: FxHashMap<usize, usize>,
    pub(crate) stats: CacheStats,
}

/// The dedup pre-pass: scans the borrowed input once, in index order, and
/// marks every live duplicate with a [`SlotHit`] pointing at its
/// representative (the first non-shed occurrence of the content).
///
/// The pass reads only input content, the admission plan's `shed` marks
/// and which indices replay a journal record — all identical between a
/// fresh run and a journal-resumed one — so the hit assignment is a pure
/// function of the run's inputs. Replayed indices participate in
/// representative selection (their committed results feed live
/// duplicates via the sink's replay store) but are never marked as hits
/// themselves: their state is already final.
pub(crate) fn plan_hits(
    pairs: &[InstructionPair],
    shed: Option<&[bool]>,
    replayed: impl Fn(usize) -> bool,
) -> CachePlan {
    let mut by_key: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    let mut hits = vec![None; pairs.len()];
    let mut uses: FxHashMap<usize, usize> = FxHashMap::default();
    let mut stats = CacheStats::default();

    for (i, pair) in pairs.iter().enumerate() {
        if shed.is_some_and(|shed| shed[i]) {
            continue;
        }
        let key = content_key(pair);
        // Full-content comparison behind the fingerprint, so a 64-bit
        // collision degrades to a miss instead of a wrong replay.
        let rep = by_key.get(&key).and_then(|cands| {
            cands
                .iter()
                .copied()
                .find(|&c| same_content(&pairs[c], pair))
        });
        let Some(rep) = rep else {
            stats.misses += 1;
            by_key.entry(key).or_default().push(i);
            continue;
        };
        stats.exact_hits += 1;
        if !replayed(i) {
            hits[i] = Some(SlotHit { rep });
            *uses.entry(rep).or_insert(0) += 1;
        }
    }
    // Every miss became a representative.
    stats.entries = stats.misses;
    CachePlan { hits, uses, stats }
}

fn same_content(a: &InstructionPair, b: &InstructionPair) -> bool {
    a.category == b.category && a.instruction == b.instruction && a.response == b.response
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::Category;

    fn pair(id: u64, instruction: &str, response: &str, cat: u16) -> InstructionPair {
        InstructionPair::new(
            id,
            instruction.to_string(),
            response.to_string(),
            Category(cat),
        )
    }

    #[test]
    fn content_key_ignores_id_and_respects_content() {
        let a = pair(1, "Explain x.", "X is y.", 0);
        let b = pair(999, "Explain x.", "X is y.", 0);
        assert_eq!(content_key(&a), content_key(&b));
        let c = pair(1, "Explain x.", "X is z.", 0);
        assert_ne!(content_key(&a), content_key(&c));
        let d = pair(1, "Explain x.", "X is y.", 3);
        assert_ne!(content_key(&a), content_key(&d));
    }

    #[test]
    fn first_occurrence_is_rep_later_ones_hit() {
        let pairs = [
            pair(0, "q", "a", 0),
            pair(1, "other", "b", 0),
            pair(2, "q", "a", 0),
            pair(3, "q", "a", 0),
        ];
        let plan = plan_hits(&pairs, None, |_| false);
        assert!(plan.hits[0].is_none());
        assert!(plan.hits[1].is_none());
        assert_eq!(plan.hits[2].map(|h| h.rep), Some(0));
        assert_eq!(plan.hits[3].map(|h| h.rep), Some(0));
        assert_eq!(plan.uses.get(&0), Some(&2));
        assert_eq!(plan.stats.exact_hits, 2);
        assert_eq!(plan.stats.misses, 2);
        assert_eq!(plan.stats.entries, 2);
        assert!((plan.stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shed_slots_are_excluded_entirely() {
        let pairs = [
            pair(0, "q", "a", 0),
            pair(1, "q", "a", 0),
            pair(2, "q", "a", 0),
        ];
        let plan = plan_hits(&pairs, Some(&[true, false, false]), |_| false);
        // The shed slot is neither a rep nor a hit; slot 1 is the rep.
        assert!(plan.hits[0].is_none());
        assert!(plan.hits[1].is_none());
        assert_eq!(plan.hits[2].map(|h| h.rep), Some(1));
        assert_eq!(plan.stats.lookups(), 2);
    }
}
