//! The content-addressed revision cache.
//!
//! CoachLM's deployment traffic (§IV-A) is duplicate-heavy: near-identical
//! instruction pairs arrive constantly, and re-running the full
//! Clean → CoachRevise → ExpertAnnotate chain on every copy burns the
//! pipeline's most expensive stage on work it has already done. The
//! revision cache memoizes the *full per-item chain result* — disposition,
//! rewritten text, tags, and the per-stage report deltas — keyed by a
//! content fingerprint of the pair as it entered the chain, so a duplicate
//! skips the whole stage-group topology.
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
//! The machinery is a deterministic **dedup pre-pass** at admission: slots
//! are scanned once, sequentially, in index order; the first non-shed
//! occurrence of each content key becomes the *representative*, and later
//! occurrences are marked as hits pointing at it. Workers skip hit slots
//! entirely (they charge zero virtual time — the throughput win); the
//! ordered sink, which always sees the representative before its
//! duplicates, replays the representative's journal-visible effects onto
//! each hit: terminal item state, report deltas, and (under a journal) a
//! synthesized per-item record, so crash-resume with a warm cache
//! converges to the uninterrupted digest.
//!
//! ## Near-match tier
//!
//! Optionally, a key that misses the exact tier probes previously inserted
//! representatives within a `k`-bounded word-level edit distance (the
//! banded DP from `coachlm-text`, over interned word symbols). A near hit
//! reuses the representative's revision — an *approximation*, tagged
//! `cache:near`, deterministic for a fixed policy but intentionally
//! different from what uncached execution would produce. Digest-identity
//! guarantees therefore apply to the exact tier; the near tier trades
//! fidelity for throughput and is fingerprinted so a journal written with
//! one policy never resumes under another.
//!
//! Breakers are incompatible with the cache: degraded passthrough depends
//! on an item's *index* (epoch position), not its content, so duplicates
//! may legitimately diverge under a breaker. The executor rejects the
//! combination.

use crate::stream::Slot;
use coachlm_data::InstructionPair;
use coachlm_text::editdist::edit_distance_bounded;
use coachlm_text::fxhash::{fingerprint_fields, FxHashMap};
use coachlm_text::intern::{Interner, Sym};
use std::hash::Hasher;

/// How the revision cache matches and retains entries. Part of the journal
/// fingerprint: hit decisions are part of run outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachePolicy {
    near_distance: usize,
    near_probes: usize,
    capacity: usize,
}

impl CachePolicy {
    /// Exact-fingerprint matching only, unbounded entries. This tier is
    /// lossless: hits replay exactly what execution would have produced.
    pub fn exact() -> Self {
        CachePolicy {
            near_distance: 0,
            near_probes: 0,
            capacity: 0,
        }
    }

    /// Enables the near-match tier: an exact miss probes up to
    /// `max_probes` stored representatives (most recent first, same
    /// category, word lengths within range) and reuses the first one
    /// within word-level edit distance `max_distance`. `max_distance` of 0
    /// disables the tier.
    pub fn near(mut self, max_distance: usize, max_probes: usize) -> Self {
        self.near_distance = max_distance;
        self.near_probes = max_probes.max(1);
        self
    }

    /// Caps the number of representatives the cache tracks; once full, new
    /// content keys stop being inserted (deterministically) and stay
    /// misses. 0 (the default) means unbounded.
    pub fn capacity(mut self, entries: usize) -> Self {
        self.capacity = entries;
        self
    }

    /// The near tier as `(max_distance, max_probes)`, if enabled.
    pub fn near_tier(&self) -> Option<(usize, usize)> {
        (self.near_distance > 0).then_some((self.near_distance, self.near_probes))
    }

    /// The representative cap (0 = unbounded).
    pub fn capacity_entries(&self) -> usize {
        self.capacity
    }

    /// Folds the policy into a run fingerprint.
    pub(crate) fn fingerprint_into(&self, h: &mut impl Hasher) {
        h.write_u64(self.near_distance as u64);
        h.write_u64(self.near_probes as u64);
        h.write_u64(self.capacity as u64);
    }
}

/// Deterministic per-run revision-cache tallies.
///
/// Every non-shed input slot is classified exactly once — as a miss (it
/// became, or failed to become, a representative) or as an exact/near hit.
/// Replayed journal slots classify the same way, so the tallies are
/// identical between a fresh run and a crash-resumed one; like
/// `sim_elapsed`, they are deterministic but excluded from the output
/// digest (an uncached run reports all zeros).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Slots whose content fingerprint matched a representative exactly.
    pub exact_hits: u64,
    /// Slots matched by the bounded-edit-distance tier.
    pub near_hits: u64,
    /// Slots that matched nothing (including every representative itself).
    pub misses: u64,
    /// Representatives inserted (distinct contents seen, capacity-capped).
    pub entries: u64,
}

impl CacheStats {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.near_hits
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
        self.near_hits += other.near_hits;
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

/// A hit recorded on a live slot by the pre-pass: replay the effects of
/// the representative with item index `rep`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotHit {
    pub(crate) rep: usize,
    pub(crate) near: bool,
}

/// Output of the dedup pre-pass.
pub(crate) struct CachePlan {
    /// Representative *item index* → number of live dependent hits. The
    /// sink stores a representative's result only while this is non-zero,
    /// decrementing per replay, so store memory is bounded by in-flight
    /// duplication, not by the input.
    pub(crate) uses: FxHashMap<usize, usize>,
    pub(crate) stats: CacheStats,
}

/// Bounded-edit-distance candidate index over inserted representatives.
///
/// Representatives are bucketed by word-sequence length band; a probe
/// scans the bands its length could match (|len(a) − len(b)| ≤ k is
/// necessary), newest representative first, and takes the first candidate
/// within the bound — a fixed, schedule-independent order, so the tier is
/// deterministic by construction.
struct NearIndex {
    max_distance: usize,
    max_probes: usize,
    interner: Interner,
    /// `(slot index, category, interned instruction+response words)`.
    reps: Vec<(usize, u16, Vec<Sym>)>,
    /// Length band (`len / max_distance`) → indices into `reps`.
    bands: FxHashMap<usize, Vec<usize>>,
}

impl NearIndex {
    fn new(max_distance: usize, max_probes: usize) -> Self {
        NearIndex {
            max_distance,
            max_probes,
            interner: Interner::new(),
            reps: Vec::new(),
            bands: FxHashMap::default(),
        }
    }

    /// Interned word sequence of a pair, with a separator symbol the
    /// interner can never hand out, so instruction/response boundaries
    /// count in the distance.
    fn syms(&mut self, pair: &InstructionPair) -> Vec<Sym> {
        let mut v = self.interner.intern_words(&pair.instruction);
        v.push(Sym(u32::MAX));
        v.extend(self.interner.intern_words(&pair.response));
        v
    }

    fn band_of(&self, len: usize) -> usize {
        len / self.max_distance.max(1)
    }

    /// First representative within the bound, or `None`.
    fn probe(&self, pair: &InstructionPair, syms: &[Sym]) -> Option<usize> {
        let len = syms.len();
        let lo = self.band_of(len.saturating_sub(self.max_distance));
        let hi = self.band_of(len + self.max_distance);
        let mut candidates: Vec<usize> = (lo..=hi)
            .filter_map(|b| self.bands.get(&b))
            .flatten()
            .copied()
            .collect();
        // Newest first: recent traffic is the likeliest match, and the
        // order is a pure function of insertion order (= index order).
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        let mut probes = 0usize;
        for rid in candidates {
            let (slot, cat, rep_syms) = &self.reps[rid];
            if *cat != pair.category.0 || rep_syms.len().abs_diff(len) > self.max_distance {
                continue;
            }
            probes += 1;
            if probes > self.max_probes {
                break;
            }
            if edit_distance_bounded(rep_syms, syms, self.max_distance).is_some() {
                return Some(*slot);
            }
        }
        None
    }

    fn insert(&mut self, slot: usize, pair: &InstructionPair, syms: Vec<Sym>) {
        let band = self.band_of(syms.len());
        self.bands.entry(band).or_default().push(self.reps.len());
        self.reps.push((slot, pair.category.0, syms));
    }
}

/// The dedup pre-pass: scans the slot sequence once, in index order, and
/// marks every live duplicate with a [`SlotHit`] pointing at its
/// representative (the first non-shed occurrence of the content).
///
/// The pass reads only input content, shed flags, and the policy — all of
/// which are identical between a fresh run and a journal-resumed one — so
/// the hit assignment is a pure function of the run's inputs. Replayed
/// slots participate in representative selection (their committed results
/// feed live duplicates via the sink's replay store) but are never marked
/// as hits themselves: their state is already final.
pub(crate) fn plan_hits(slots: &mut [Slot], policy: &CachePolicy) -> CachePlan {
    let mut by_key: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    let mut near = policy.near_tier().map(|(d, p)| NearIndex::new(d, p));
    let mut uses: FxHashMap<usize, usize> = FxHashMap::default();
    let mut stats = CacheStats::default();
    let mut decisions: Vec<(usize, SlotHit)> = Vec::new();
    let mut entries = 0usize;

    for i in 0..slots.len() {
        if slots[i].shed {
            continue;
        }
        let key = content_key(&slots[i].item.original);
        // Exact tier: full-content comparison behind the fingerprint, so a
        // 64-bit collision degrades to a miss instead of a wrong replay.
        let exact_rep = by_key.get(&key).and_then(|cands| {
            cands
                .iter()
                .copied()
                .find(|&c| same_content(&slots[c].item.original, &slots[i].item.original))
        });
        if let Some(rep_pos) = exact_rep {
            stats.exact_hits += 1;
            if slots[i].replay.is_none() {
                let rep = slots[rep_pos].item.index;
                decisions.push((i, SlotHit { rep, near: false }));
                *uses.entry(rep).or_insert(0) += 1;
            }
            continue;
        }
        let syms = near.as_mut().map(|n| n.syms(&slots[i].item.original));
        let near_rep = match (&near, &syms) {
            (Some(n), Some(s)) => n.probe(&slots[i].item.original, s),
            _ => None,
        };
        if let Some(rep) = near_rep {
            stats.near_hits += 1;
            if slots[i].replay.is_none() {
                decisions.push((i, SlotHit { rep, near: true }));
                *uses.entry(rep).or_insert(0) += 1;
            }
            continue;
        }
        stats.misses += 1;
        if policy.capacity == 0 || entries < policy.capacity {
            by_key.entry(key).or_default().push(i);
            if let (Some(n), Some(s)) = (near.as_mut(), syms) {
                n.insert(slots[i].item.index, &slots[i].item.original, s);
            }
            entries += 1;
        }
    }
    stats.entries = entries as u64;

    for (i, hit) in decisions {
        slots[i].hit = Some(hit);
    }
    CachePlan { uses, stats }
}

fn same_content(a: &InstructionPair, b: &InstructionPair) -> bool {
    a.category == b.category && a.instruction == b.instruction && a.response == b.response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageItem;
    use coachlm_data::Category;

    fn pair(id: u64, instruction: &str, response: &str, cat: u16) -> InstructionPair {
        InstructionPair::new(
            id,
            instruction.to_string(),
            response.to_string(),
            Category(cat),
        )
    }

    fn slot(index: usize, p: InstructionPair) -> Slot {
        Slot::live(StageItem::new(index, p), false)
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
        let mut slots = vec![
            slot(0, pair(0, "q", "a", 0)),
            slot(1, pair(1, "other", "b", 0)),
            slot(2, pair(2, "q", "a", 0)),
            slot(3, pair(3, "q", "a", 0)),
        ];
        let plan = plan_hits(&mut slots, &CachePolicy::exact());
        assert!(slots[0].hit.is_none());
        assert!(slots[1].hit.is_none());
        assert_eq!(slots[2].hit.map(|h| h.rep), Some(0));
        assert_eq!(slots[3].hit.map(|h| h.rep), Some(0));
        assert_eq!(plan.uses.get(&0), Some(&2));
        assert_eq!(plan.stats.exact_hits, 2);
        assert_eq!(plan.stats.misses, 2);
        assert_eq!(plan.stats.entries, 2);
        assert!((plan.stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shed_slots_are_excluded_entirely() {
        let mut slots = vec![
            slot(0, pair(0, "q", "a", 0)),
            slot(1, pair(1, "q", "a", 0)),
            slot(2, pair(2, "q", "a", 0)),
        ];
        slots[0].shed = true;
        slots[0].item.discard("shed:admission");
        let plan = plan_hits(&mut slots, &CachePolicy::exact());
        // The shed slot is neither a rep nor a hit; slot 1 is the rep.
        assert!(slots[0].hit.is_none());
        assert!(slots[1].hit.is_none());
        assert_eq!(slots[2].hit.map(|h| h.rep), Some(1));
        assert_eq!(plan.stats.lookups(), 2);
    }

    #[test]
    fn capacity_freezes_insertion_deterministically() {
        let mut slots: Vec<Slot> = (0..6)
            .map(|i| slot(i, pair(i as u64, &format!("q{i}"), "a", 0)))
            .collect();
        slots.push(slot(6, pair(6, "q5", "a", 0)));
        let plan = plan_hits(&mut slots, &CachePolicy::exact().capacity(3));
        // Only q0..q2 inserted; q5's duplicate misses because q5 was never
        // admitted as a representative.
        assert_eq!(plan.stats.entries, 3);
        assert_eq!(plan.stats.exact_hits, 0);
        assert_eq!(plan.stats.misses, 7);
        assert!(slots.iter().all(|s| s.hit.is_none()));
    }

    #[test]
    fn near_tier_matches_within_bound_and_same_category_only() {
        let mut slots = vec![
            slot(0, pair(0, "please rewrite this text carefully", "sure", 1)),
            // One word substituted: distance 1.
            slot(1, pair(1, "please rewrite this text quickly", "sure", 1)),
            // Same text, different category: no match.
            slot(2, pair(2, "please rewrite this text quickly", "sure", 2)),
            // Too far: every word differs.
            slot(
                3,
                pair(
                    3,
                    "completely unrelated words entirely different",
                    "nope",
                    1,
                ),
            ),
        ];
        let plan = plan_hits(&mut slots, &CachePolicy::exact().near(2, 8));
        assert_eq!(
            slots[1].hit.map(|h| (h.rep, h.near)),
            Some((0, true)),
            "near hit on the one-word variant"
        );
        assert!(slots[2].hit.is_none(), "category mismatch never matches");
        assert!(slots[3].hit.is_none(), "distance beyond the bound misses");
        assert_eq!(plan.stats.near_hits, 1);
    }

    #[test]
    fn near_probe_prefers_newest_and_budget_bounds_work() {
        // Two representatives more than `k` apart from each other (so the
        // second is inserted, not matched), then two probes.
        let mut slots = vec![
            // Rep A: distance 3 from rep B (two words + the response).
            slot(0, pair(0, "w1 w2 w3 w4 w5", "r", 0)),
            // Rep B: misses A at bound 2, becomes the newest rep.
            slot(1, pair(1, "w1 w2 w3 x4 x5", "x", 0)),
            // Probe 1: distance 1 from B, distance 2 from A — both within
            // bound, so newest-first order decides: B wins.
            slot(2, pair(2, "w1 w2 w3 w4 x5", "x", 0)),
            // Probe 2: distance 1 from A only (B is at distance 3). A
            // budget of 1 spends the whole budget on B and never reaches
            // A: the probe misses and becomes a rep itself.
            slot(3, pair(3, "w1 w2 w3 w4 w5", "r2", 0)),
        ];
        let plan = plan_hits(&mut slots, &CachePolicy::exact().near(2, 1));
        assert_eq!(
            slots[2].hit.map(|h| (h.rep, h.near)),
            Some((1, true)),
            "both reps within bound: the newest is probed first"
        );
        assert!(
            slots[3].hit.is_none(),
            "budget exhausted on the newest rep before reaching the match"
        );
        assert_eq!(plan.stats.near_hits, 1);
        assert_eq!(plan.stats.entries, 3);
    }
}
