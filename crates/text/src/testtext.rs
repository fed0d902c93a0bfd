//! Inputs for the text kernels' reference tests: fragments aimed at each
//! kernel's edge cases, glued into texts by a seeded RNG, plus the texts of
//! generated instruction pairs.

use coachlm_data::generator::{generate, GeneratorConfig};
use rand::rngs::StdRng;
use rand::Rng;

/// ASCII and Unicode whitespace; C0 and C1 controls, DEL and U+FFFD;
/// non-ASCII letters, among them ones whose case mapping changes their
/// length (`ß`, `ŉ`, `İ`, the Kelvin sign); punctuation and digit runs;
/// word stutters, repeated tails and template markers.
const PIECES: &[&str] = &[
    " ",
    " ",
    " ",
    "  ",
    "\t",
    "\n",
    "\n\n",
    "\x0B",
    "\x0C",
    "\r",
    "\r\n",
    "\u{85}",
    "\u{A0}",
    "\u{2003}",
    "\u{3000}",
    "\u{0}",
    "\u{7}",
    "\u{1B}",
    "\u{1F}",
    "\u{7F}",
    "\u{80}",
    "\u{9F}",
    "\u{FFFD}",
    "word",
    "Word",
    "the",
    "a",
    "i",
    "é",
    "É",
    "ß",
    "ŉ",
    "İ",
    "ǅ",
    "中文",
    "\u{212A}",
    "\u{212A}ey",
    "ΑΣ",
    "ς",
    "٣",
    ".",
    ",",
    ";",
    ":",
    "!",
    "?",
    "'",
    "-",
    "...",
    "(",
    ")",
    "#",
    "3",
    "3.14",
    "1,000",
    "42.",
    "e.g.",
    "don't",
    "state-of-the-art",
    "x-",
    "'s",
    "very very very very",
    "the end.the end.the end.",
    "ha ha ha ",
    "42.42.42.42.",
    "spam spam spam spam spam",
    "### Response:",
    "[INSTRUCTION]",
];

/// Up to `max_pieces` fragments in a seeded order.
pub(crate) fn mixed_text(rng: &mut StdRng, max_pieces: usize) -> String {
    (0..rng.gen_range(0..=max_pieces))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

/// Every input of a kernel's reference test named `name`: each fragment
/// alone, `proptest::cases()` mixed texts, and the instructions and
/// responses of 300 generated pairs.
pub(crate) fn inputs(name: &str) -> Vec<String> {
    let mut texts: Vec<String> = PIECES.iter().map(|p| p.to_string()).collect();
    texts.push(String::new());
    for case in 0..proptest::cases() {
        let mut rng = proptest::case_rng(name, case);
        texts.push(mixed_text(&mut rng, 40));
    }
    let (dataset, _) = generate(&GeneratorConfig::small(300, 17));
    for pair in dataset.pairs {
        texts.push(pair.instruction);
        texts.push(pair.response);
    }
    texts
}
