//! Multi-pattern substring search: a dense Aho–Corasick automaton.
//!
//! Every pattern carries an owner set `O` (a bit set), and each state
//! stores the union of the owners of every pattern that ends there, found
//! along its failure links. A walk over a text that unites the owners of
//! every state it enters learns which patterns occur, all at once and
//! overlapping and nested occurrences included: a pattern that ends at a
//! byte is a suffix of the text read so far, so it is on the failure chain
//! of the state the walk is in.
//!
//! Bytes that no pattern holds share one class, so the transition table
//! has one column per class rather than 256. It is stored column by column
//! (all states' transitions on one class together), so the next state's
//! address is the byte's column start plus the state id: the multiply of a
//! row-major table sits off the walk's chain of dependent loads. State ids
//! are `u16`, and a transition's top bit says whether the state it leads
//! to has owners, so a walk reads the owner table only at states where a
//! pattern ends.

use std::ops::BitOrAssign;

/// A compiled set of byte patterns.
pub(crate) struct Automaton<O> {
    /// Where each byte's column starts in `next`: its class times the
    /// number of states. A byte no pattern holds is in class 0.
    columns: [u32; 256],
    /// `next[columns[byte] + id]`: the state after reading `byte` in state
    /// `id`, with [`OWNED`] set if that state has owners.
    next: Vec<u16>,
    /// The owners of every pattern that ends in each state.
    out: Vec<O>,
}

/// The start state.
pub(crate) const START: u16 = 0;
/// The bit of a state that has owners.
const OWNED: u16 = 1 << 15;
/// A missing trie edge, only while building.
const NONE: u16 = u16::MAX;

impl<O: Copy + Default + PartialEq + BitOrAssign> Automaton<O> {
    /// Compiles `patterns`, each a byte string and the owners an occurrence
    /// of it sets. An empty pattern never occurs.
    pub(crate) fn new<'p>(patterns: impl IntoIterator<Item = (&'p [u8], O)> + Clone) -> Self {
        let mut classes = [0u8; 256];
        let mut stride = 1usize;
        for (pattern, _) in patterns.clone() {
            for &b in pattern {
                if classes[usize::from(b)] == 0 {
                    // lint: allow(P1, reason = "built-in pattern lists hold far fewer than 255 distinct bytes; more is a construction bug")
                    classes[usize::from(b)] = u8::try_from(stride).expect("at most 255 classes");
                    stride += 1;
                }
            }
        }
        // The trie: rows of `NONE` until an edge is added.
        let mut next = vec![NONE; stride];
        let mut out = vec![O::default()];
        for (pattern, owners) in patterns {
            if pattern.is_empty() {
                continue;
            }
            let mut state = usize::from(START);
            for &b in pattern {
                let at = state * stride + usize::from(classes[usize::from(b)]);
                if next[at] == NONE {
                    next[at] = u16::try_from(out.len())
                        .ok()
                        .filter(|&id| id < OWNED)
                        // lint: allow(P1, reason = "built-in pattern lists compile to a few thousand states; more is a construction bug")
                        .expect("fewer than 32768 states");
                    next.resize(next.len() + stride, NONE);
                    out.push(O::default());
                }
                state = usize::from(next[at]);
            }
            out[state] |= owners;
        }
        // Breadth first, so that a state's failure target, which is
        // shallower, already has its complete row and its complete owners.
        // A missing edge becomes the failure target's transition; the
        // start state's missing edges loop back to it.
        let mut fail = vec![START; out.len()];
        let mut queue = std::collections::VecDeque::from([START]);
        while let Some(state) = queue.pop_front() {
            let (state, back) = (usize::from(state), usize::from(fail[usize::from(state)]));
            for class in 0..stride {
                let child = next[state * stride + class];
                let via_back = if state == usize::from(START) {
                    START
                } else {
                    next[back * stride + class]
                };
                if child == NONE {
                    next[state * stride + class] = via_back;
                } else {
                    fail[usize::from(child)] = via_back;
                    let inherited = out[usize::from(via_back)];
                    out[usize::from(child)] |= inherited;
                    queue.push_back(child);
                }
            }
        }
        let states = out.len();
        let mut columns = [0u32; 256];
        for (column, &class) in columns.iter_mut().zip(&classes) {
            // lint: allow(P1, reason = "a few thousand states times at most 256 classes fits in u32")
            *column = u32::try_from(usize::from(class) * states).expect("table fits in u32");
        }
        let mut by_column = vec![START; next.len()];
        for (at, &to) in next.iter().enumerate() {
            let owned = if out[usize::from(to)] == O::default() {
                0
            } else {
                OWNED
            };
            by_column[(at % stride) * states + at / stride] = to | owned;
        }
        Automaton {
            columns,
            next: by_column,
            out,
        }
    }

    /// The state after reading `byte` in `state`.
    #[inline]
    pub(crate) fn step(&self, state: u16, byte: u8) -> u16 {
        let column = self.columns[usize::from(byte)] as usize;
        self.next[column + usize::from(state & !OWNED)]
    }

    /// The owners of every pattern that ends in `state`, if there are any.
    #[inline]
    pub(crate) fn owners(&self, state: u16) -> Option<O> {
        (state & OWNED != 0).then(|| self.out[usize::from(state & !OWNED)])
    }

    /// The owners of every pattern that occurs in `text`.
    #[cfg(test)]
    pub(crate) fn find_all(&self, text: &[u8]) -> O {
        let mut state = START;
        let mut hits = O::default();
        for &b in text {
            state = self.step(state, b);
            if let Some(owners) = self.owners(state) {
                hits |= owners;
            }
        }
        hits
    }

    /// Bytes the tables take.
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.columns)
            + std::mem::size_of_val(self.next.as_slice())
            + std::mem::size_of_val(self.out.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Each pattern's bit, pattern `i` owning bit `i`.
    fn compile(patterns: &[&str]) -> Automaton<u128> {
        Automaton::new(
            patterns
                .iter()
                .enumerate()
                .map(|(i, p)| (p.as_bytes(), 1u128 << i)),
        )
    }

    /// One substring search per pattern.
    fn reference_find_all(patterns: &[&str], text: &str) -> u128 {
        patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty() && text.contains(*p))
            .fold(0, |acc, (i, _)| acc | 1 << i)
    }

    #[test]
    fn overlapping_and_nested_patterns_all_match() {
        let patterns = ["he", "she", "his", "hers", "5", "50 degrees", "e", ""];
        let ac = compile(&patterns);
        for text in ["ushers", "50 degrees", "x5", "his hers", "", "zzz", "shhe"] {
            assert_eq!(
                ac.find_all(text.as_bytes()),
                reference_find_all(&patterns, text),
                "{text:?}"
            );
        }
    }

    #[test]
    fn random_pattern_sets_match_the_reference_searches() {
        const ALPHABET: &[&str] = &["a", "b", "ab", " ", "é", "\u{212A}", "ς"];
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("random_pattern_sets_match_the_reference", case);
            let piece = |rng: &mut rand::rngs::StdRng, max: usize| -> String {
                (0..rng.gen_range(0..=max))
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                    .collect()
            };
            let owned: Vec<String> = (0..rng.gen_range(1..40))
                .map(|_| piece(&mut rng, 4))
                .collect();
            let patterns: Vec<&str> = owned.iter().map(String::as_str).collect();
            let ac = compile(&patterns);
            for _ in 0..8 {
                let text = piece(&mut rng, 30);
                assert_eq!(
                    ac.find_all(text.as_bytes()),
                    reference_find_all(&patterns, &text),
                    "{patterns:?} in {text:?}"
                );
            }
        }
    }
}
