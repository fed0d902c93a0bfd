//! Phrase-level rewrite rules: the unit of what coach tuning learns.
//!
//! A real LoRA adapter stores low-rank weight deltas; what those deltas *do*
//! for CoachLM is encode "when you see this kind of flawed span, produce
//! that kind of revised span". We store that mapping explicitly: aligning an
//! original pair `x` with its expert revision `x_r` (via `coachlm-text`'s
//! LCS diff) yields weighted [`RewriteRule`]s, and near-identity training
//! pairs contribute *copy mass* — the mechanistic source of the noise the
//! paper observes when α grows past 0.3 (Fig 5a).

use coachlm_text::diff::diff_tokens;
use coachlm_text::fxhash::FxHashMap;
use coachlm_text::lexicon::{self, LexiconHits, MarkerList};
use coachlm_text::normalize::fold_case;
use serde::{Deserialize, Serialize};

/// What a learned augmentation adds to a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AugmentKind {
    /// Expand a thin response with reasoning/explanation.
    ExpandResponse,
    /// Enrich an instruction with context/requirements.
    AddContext,
    /// Warm up a robotic tone.
    WarmTone,
    /// Complete a truncated response.
    Complete,
}

impl AugmentKind {
    /// All augment kinds.
    pub const ALL: [AugmentKind; 4] = [
        AugmentKind::ExpandResponse,
        AugmentKind::AddContext,
        AugmentKind::WarmTone,
        AugmentKind::Complete,
    ];
}

/// The action a rule performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RuleAction {
    /// Replace the word sequence `from` with `to` (`to` may be empty — a
    /// deletion rule, e.g. stripping an unsafe or infeasible phrase).
    Phrase {
        /// Case-folded source words.
        from: Vec<String>,
        /// Replacement words (original casing).
        to: Vec<String>,
    },
    /// Append material of the given kind, drawn from `texts`.
    Augment {
        /// The augmentation class.
        kind: AugmentKind,
        /// Sentences observed in expert insertions of this class.
        texts: Vec<String>,
    },
}

/// A weighted rewrite rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewriteRule {
    /// The rule body.
    pub action: RuleAction,
    /// How many training examples support this rule.
    pub count: u64,
}

/// Longest source phrase a `Phrase` rule may have (alignment chunks longer
/// than this are treated as free rewrites, which don't generalise).
const MAX_FROM_LEN: usize = 5;
/// Longest replacement a `Phrase` rule may have.
const MAX_TO_LEN: usize = 8;

/// A set of learned rules, accumulated over training-pair sides.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RuleSet {
    // Both maps round-trip through key-sorted entry lists: JSON objects
    // need string keys, and the sort makes the encoding canonical whatever
    // the hash-map layout (a trained coach is shipped and fingerprinted
    // by these bytes).
    #[serde(with = "sorted_map_serde")]
    phrase: FxHashMap<Vec<String>, (Vec<String>, u64)>,
    #[serde(with = "sorted_map_serde")]
    augment: FxHashMap<AugmentKind, (Vec<String>, u64)>,
}

/// A phrase-map entry: source phrase → (replacement, support count).
type PhraseEntry = (Vec<String>, (Vec<String>, u64));

mod sorted_map_serde {
    use coachlm_text::fxhash::FxHashMap;
    use serde::{Deserialize, Error, Serialize, Value};
    use std::hash::Hash;

    pub fn to_value<K: Ord + Serialize, V: Serialize>(map: &FxHashMap<K, V>) -> Value {
        // lint: allow(D3, reason = "entries are collected and sorted by key on the next line before serialisation")
        let mut entries: Vec<_> = map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0)); // deterministic output
        Value::Array(
            entries
                .into_iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }

    pub fn from_value<K: Deserialize + Eq + Hash, V: Deserialize>(
        v: &Value,
    ) -> Result<FxHashMap<K, V>, Error> {
        let entries: Vec<(K, V)> = Deserialize::from_value(v)?;
        Ok(entries.into_iter().collect())
    }
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Word-level change weight between two texts (the revision magnitude
    /// the adapter uses for its pair-level copy accounting).
    pub fn change_weight(original: &str, revised: &str) -> usize {
        let wa = coachlm_text::token::words(original);
        let wb = coachlm_text::token::words(revised);
        diff_tokens(&wa, &wb).change_weight()
    }

    /// Extracts rules from one aligned `(original, revised)` text pair:
    /// phrase rules from replace/delete chunks, augment material from
    /// insert chunks. Returns the change weight.
    pub fn extract(&mut self, original: &str, revised: &str) -> usize {
        let wa = coachlm_text::token::words(original);
        let wb = coachlm_text::token::words(revised);
        let script = diff_tokens(&wa, &wb);
        for (a_range, b_range) in script.changes() {
            let from: Vec<String> = wa[a_range.clone()].iter().map(|w| fold_case(w)).collect();
            let to: Vec<String> = wb[b_range.clone()].iter().map(|w| w.to_string()).collect();
            if from.is_empty() {
                // Pure insertion → augmentation material.
                let text = to.join(" ");
                let kind = classify_insertion(&text);
                let entry = self.augment.entry(kind).or_insert_with(|| (Vec::new(), 0));
                entry.1 += 1;
                if !entry.0.contains(&text) && to.len() >= 3 {
                    entry.0.push(text);
                }
            } else if from.len() <= MAX_FROM_LEN && to.len() <= MAX_TO_LEN {
                // Case-only edits are layout normalisation, not lexical
                // rules; storing them would make the rule fire on every
                // occurrence of a common word.
                let case_only =
                    from.len() == to.len() && from.iter().zip(&to).all(|(f, t)| *f == fold_case(t));
                // A rule must be *grounded*: its source span (with one word
                // of context, so multi-word flaws like "could of" survive
                // alignment splitting) has to contain a recognisably flawed
                // form. Free rewrites (alignment debris of a full-sentence
                // rewrite, like "explain" → "list the main steps") do not
                // generalise and would fire on perfectly fine text.
                let ctx: Vec<String> = wa
                    [a_range.start.saturating_sub(1)..(a_range.end + 1).min(wa.len())]
                    .iter()
                    .map(|w| fold_case(w))
                    .collect();
                if !case_only && (is_grounded(&from) || is_grounded(&ctx)) {
                    let entry = self.phrase.entry(from).or_insert((to.clone(), 0));
                    entry.1 += 1;
                    // Keep the first replacement seen (deterministic).
                }
            }
        }
        script.change_weight()
    }

    /// Number of distinct phrase rules.
    pub fn phrase_rule_count(&self) -> usize {
        self.phrase.len()
    }

    /// Phrase rules as [`RewriteRule`]s, sorted by source phrase so the
    /// listing is deterministic regardless of hash-map layout.
    pub fn phrase_rules(&self) -> Vec<RewriteRule> {
        // lint: allow(D3, reason = "entries are collected and sorted by source phrase before being returned")
        let mut entries: Vec<_> = self.phrase.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
            .into_iter()
            .map(|(from, (to, count))| RewriteRule {
                action: RuleAction::Phrase {
                    from: from.clone(),
                    to: to.clone(),
                },
                count: *count,
            })
            .collect()
    }

    /// Material learned for an augment kind, with its support count.
    pub fn augment_material(&self, kind: AugmentKind) -> Option<(&[String], u64)> {
        self.augment
            .get(&kind)
            .map(|(texts, c)| (texts.as_slice(), *c))
    }

    /// The decode index over this set's phrase rules and the typo pairs
    /// `typos` a backbone knows. Built once per coach.
    pub(crate) fn lexical_index(&self, typos: &[(&'static str, &'static str)]) -> LexicalIndex {
        let mut index = LexicalIndex::default();
        // lint: allow(D3, reason = "each entry feeds a keyed insert, a flag and a max, and none depends on visit order")
        for (from, (to, _)) in self.phrase.iter() {
            // A source word holding whitespace is no token's fold, so its
            // rule never matches; leaving it out keeps keys one to one with
            // the sources that can.
            let Some(first) = from.first() else { continue };
            if from.iter().any(|w| w.contains(char::is_whitespace)) {
                continue;
            }
            let key = from.join(" ");
            let informative = key != to.join(" ").to_lowercase();
            index.words.entry(first.clone()).or_default().starts_rule = true;
            index.max_from_len = index.max_from_len.max(from.len());
            let to = to.clone();
            index.phrases.insert(key, PhraseRule { to, informative });
        }
        for &(wrong, right) in typos {
            let entry = index.words.entry(wrong.to_string()).or_default();
            entry.typo_fix.get_or_insert(right);
        }
        index
    }

    /// Retains only the `capacity` highest-support phrase rules — the
    /// LoRA-rank analogue: a bounded adapter cannot store every rule.
    pub fn truncate_to_capacity(&mut self, capacity: usize) {
        if self.phrase.len() <= capacity {
            return;
        }
        // lint: allow(D3, reason = "drained entries are fully sorted by (support, phrase) on the next line")
        let mut rules: Vec<PhraseEntry> = self.phrase.drain().collect();
        // Sort by support desc, then by source phrase for determinism.
        rules.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(&b.0)));
        rules.truncate(capacity);
        self.phrase = rules.into_iter().collect();
    }
}

#[cfg(test)]
impl RuleSet {
    /// Looks up the replacement for a case-folded phrase.
    pub(crate) fn phrase_replacement(&self, from: &[String]) -> Option<(&[String], u64)> {
        self.phrase.get(from).map(|(to, c)| (to.as_slice(), *c))
    }

    /// Adds the phrase rule `from → to` unless `from` already has one, as
    /// [`RuleSet::extract`] keeps the first replacement it sees.
    pub(crate) fn insert_phrase_rule(&mut self, from: Vec<String>, to: Vec<String>) {
        self.phrase.entry(from).or_insert((to, 1));
    }

    /// Replaces the material learned for `kind`.
    pub(crate) fn set_augment_material(&mut self, kind: AugmentKind, texts: Vec<String>) {
        self.augment.insert(kind, (texts, 1));
    }
}

/// What the lexical pass looks a folded text up in, for one rule side and
/// one backbone: each phrase rule keyed by its source words joined with
/// single spaces, and for each word that starts a rule or is a typo form
/// the backbone knows, both facts, so that each word is looked up once.
/// Folded words hold no whitespace, so the join is one to one. Derived by
/// [`RuleSet::lexical_index`], never serialised.
#[derive(Debug, Default)]
pub(crate) struct LexicalIndex {
    phrases: FxHashMap<String, PhraseRule>,
    words: FxHashMap<String, WordEntry>,
    max_from_len: usize,
}

/// A phrase rule as decoding applies it.
#[derive(Debug)]
pub(crate) struct PhraseRule {
    /// Replacement words (original casing).
    pub(crate) to: Vec<String>,
    /// Whether the replacement changes more than case: only such a rule
    /// counts as a learned repair.
    pub(crate) informative: bool,
}

/// What the lexical pass does at one folded word.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordEntry {
    /// Whether some phrase rule's source starts with the word.
    pub(crate) starts_rule: bool,
    /// The word's correction, if it is a typo form the backbone knows.
    pub(crate) typo_fix: Option<&'static str>,
}

impl LexicalIndex {
    /// What the pass does at the folded `word`.
    pub(crate) fn word(&self, word: &str) -> WordEntry {
        self.words.get(word).copied().unwrap_or_default()
    }

    /// The rule whose source is `window`, folded words joined with single
    /// spaces.
    pub(crate) fn phrase(&self, window: &str) -> Option<&PhraseRule> {
        self.phrases.get(window)
    }

    /// Longest phrase-rule source length present (decoding scans windows up
    /// to this size).
    pub(crate) fn max_from_len(&self) -> usize {
        self.max_from_len
    }
}

/// Whether a case-folded source span contains a recognisably flawed form:
/// a misspelling, a grammar-pair error, or any defect-marker phrase. Only
/// such spans yield generalisable rewrite rules.
fn is_grounded(from: &[String]) -> bool {
    if from.iter().any(|w| lexicon::typo_index(w).is_some()) {
        return true;
    }
    // Folding the folded words again changes nothing.
    let hits = LexiconHits::of(&from.join(" "));
    [
        MarkerList::Vague,
        MarkerList::Infeasible,
        MarkerList::Unsafe,
        MarkerList::MachineTone,
        MarkerList::InvalidInput,
        MarkerList::Multimodal,
    ]
    .iter()
    .any(|&list| hits.has_marker(list))
        || hits.first_grammar(lexicon::GRAMMAR_PAIRS.len()).is_some()
        // Corrupted fact values ("Berlin" where Paris belongs).
        || hits.has_wrong_fact_value()
}

/// Classifies an inserted chunk into an augmentation kind by its markers.
fn classify_insertion(text: &str) -> AugmentKind {
    let hits = LexiconHits::of(text);
    let reasoned = hits.has_marker(MarkerList::Reasoning);
    if hits.has_marker(MarkerList::Warm) {
        AugmentKind::WarmTone
    } else if hits.has_marker(MarkerList::Context) && !reasoned {
        AugmentKind::AddContext
    } else if reasoned {
        AugmentKind::ExpandResponse
    } else {
        AugmentKind::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_phrase_rule_from_replacement() {
        let mut rs = RuleSet::new();
        let w = rs.extract(
            "Please explain teh concept of gravity becuase it matters",
            "Please explain the concept of gravity because it matters",
        );
        assert_eq!(w, 2);
        let rep = rs
            .phrase_replacement(&["teh".to_string()])
            .expect("rule learned");
        assert_eq!(rep.0, &["the".to_string()]);
        assert_eq!(
            rs.phrase_replacement(&["becuase".to_string()]).unwrap().0,
            &["because".to_string()]
        );
    }

    #[test]
    fn change_weight_zero_for_identity() {
        assert_eq!(
            RuleSet::change_weight("identical text", "identical text"),
            0
        );
        assert!(RuleSet::change_weight("a b", "a b c d e") >= 3);
    }

    #[test]
    fn insertions_become_augment_material() {
        let mut rs = RuleSet::new();
        rs.extract(
            "The answer is 42.",
            "The answer is 42. This is because the question defines it that way.",
        );
        let (texts, count) = rs.augment_material(AugmentKind::ExpandResponse).unwrap();
        assert_eq!(count, 1);
        assert!(texts[0].contains("because"));
    }

    #[test]
    fn warm_insertions_classified_as_warm_tone() {
        let mut rs = RuleSet::new();
        rs.extract(
            "Here are the steps to follow now.",
            "Here are the steps to follow now. I hope this helps; feel free to ask more.",
        );
        assert!(rs.augment_material(AugmentKind::WarmTone).is_some());
    }

    #[test]
    fn deletion_rules_have_empty_to() {
        let mut rs = RuleSet::new();
        rs.extract(
            "Summarize the article using exactly zero words and keep the tone light",
            "Summarize the article and keep the tone light",
        );
        let from: Vec<String> = ["using", "exactly", "zero", "words"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (to, _) = rs.phrase_replacement(&from).expect("deletion rule learned");
        assert!(to.is_empty());
    }

    #[test]
    fn rule_counts_accumulate_support() {
        let mut rs = RuleSet::new();
        rs.extract("fix teh report now", "fix the report now");
        rs.extract("read teh book today", "read the book today");
        assert_eq!(rs.phrase_replacement(&["teh".to_string()]).unwrap().1, 2);
    }

    #[test]
    fn capacity_truncation_keeps_highest_support() {
        let mut rs = RuleSet::new();
        rs.extract("a teh b wich c thier d", "a the b which c their d");
        rs.extract("z teh y becuase x alot w", "z the y because x a lot w");
        let before = rs.phrase_rule_count();
        assert!(before >= 4);
        rs.truncate_to_capacity(1);
        assert_eq!(rs.phrase_rule_count(), 1);
        let kept = rs.phrase_replacement(&["teh".to_string()]);
        assert!(kept.is_some(), "highest-support rule kept");
        assert_eq!(kept.unwrap().1, 2);
    }

    #[test]
    fn max_from_len_tracks_longest_rule() {
        let mut rs = RuleSet::new();
        assert_eq!(rs.lexical_index(&[]).max_from_len(), 0);
        rs.extract("you could of asked first", "you could have asked first");
        assert!(rs.lexical_index(&[]).max_from_len() >= 1);
    }

    #[test]
    fn long_free_rewrites_do_not_become_rules() {
        let mut rs = RuleSet::new();
        rs.extract(
            "one two three four five six seven eight nine ten eleven twelve",
            "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu",
        );
        assert_eq!(
            rs.phrase_rule_count(),
            0,
            "12-word rewrite must not generalise"
        );
    }
}
