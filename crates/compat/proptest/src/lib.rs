//! Offline stand-in for the `proptest` crate.
//!
//! Deterministic seeded property testing over the strategy subset this
//! workspace uses:
//!
//! * string strategies from a regex subset — concatenations of
//!   `[class]{m,n}` character-class repetitions and `\PC{m,n}`
//!   (any non-control character, multibyte included);
//! * integer range strategies (`0u8..4`, `0usize..=16`, …);
//! * `prop::collection::vec(strategy, size_range)`.
//!
//! No shrinking: a failing case reports its inputs and panics. Case count
//! defaults to 64 per property (`PROPTEST_CASES` overrides).
//!
//! Beyond upstream's API, [`mutate`] is the one seeded byte mutator the
//! workspace's decoder fuzz tests share.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Failure raised by `prop_assert!` macros inside a property body.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

/// Number of cases per property (`PROPTEST_CASES` env overrides; default 64).
pub fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Per-case RNG, seeded from the property name and case index.
pub fn case_rng(name: &str, case: u64) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Applies one to three seeded mutations to `base`: a bit flip, a
/// truncation, random bytes appended, or a slice of `donor` (which must
/// not be empty) spliced in.
pub fn mutate(rng: &mut StdRng, base: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut m = base.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=m.len());
        match rng.gen_range(0..4) {
            0 if !m.is_empty() => {
                let i = rng.gen_range(0..m.len());
                m[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
            1 => m.truncate(at),
            2 => {
                let n = rng.gen_range(1..=16);
                m.extend((0..n).map(|_| rng.gen_range(0..=u8::MAX)));
            }
            _ => {
                let from = rng.gen_range(0..donor.len());
                let to = (from + rng.gen_range(1..=64usize)).min(donor.len());
                let cut = (at + rng.gen_range(0..=64usize)).min(m.len());
                m.splice(at..cut, donor[from..to].iter().copied());
            }
        }
    }
    m
}

// ---- range strategies -----------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// A fixed value as a strategy (used by `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

// ---- regex string strategies ----------------------------------------------

/// One atom of the supported regex subset.
enum Atom {
    /// `[...]{m,n}`: repeat a class member.
    Class {
        chars: Vec<char>,
        min: usize,
        max: usize,
    },
    /// `\PC{m,n}`: repeat any non-control char (sampled from a pool that
    /// includes multibyte and combining characters).
    AnyPrintable { min: usize, max: usize },
}

/// Pool for `\PC`: ASCII plus multibyte letters, an emoji, and a
/// zero-width joiner, so char-boundary handling gets exercised.
const PRINTABLE_EXTRA: &[char] = &[
    'é', 'ß', '中', '日', '語', '€', '🌊', '✓', '\u{200D}', 'Ω', 'й',
];

fn parse_pattern(pattern: &str) -> Vec<Atom> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .expect("unclosed character class")
                    + i;
                let mut members = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                        for c in lo..=hi {
                            members.push(char::from_u32(c).expect("valid range"));
                        }
                        j += 3;
                    } else {
                        members.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                let (min, max, next) = parse_repeat(&chars, i);
                i = next;
                atoms.push(Atom::Class {
                    chars: members,
                    min,
                    max,
                });
            }
            '\\' => {
                assert!(
                    chars.get(i + 1) == Some(&'P') && chars.get(i + 2) == Some(&'C'),
                    "proptest stub: unsupported escape in {pattern:?}"
                );
                i += 3;
                let (min, max, next) = parse_repeat(&chars, i);
                i = next;
                atoms.push(Atom::AnyPrintable { min, max });
            }
            c => {
                let (min, max, next) = parse_repeat(&chars, i + 1);
                i = next;
                atoms.push(Atom::Class {
                    chars: vec![c],
                    min,
                    max,
                });
            }
        }
    }
    atoms
}

/// Parses an optional `{m,n}` / `{n}` quantifier at `chars[i..]`.
fn parse_repeat(chars: &[char], i: usize) -> (usize, usize, usize) {
    if chars.get(i) != Some(&'{') {
        return (1, 1, i);
    }
    let close = chars[i..]
        .iter()
        .position(|&c| c == '}')
        .expect("unclosed repeat")
        + i;
    let body: String = chars[i + 1..close].iter().collect();
    let (min, max) = match body.split_once(',') {
        Some((lo, hi)) => (
            lo.trim().parse().expect("repeat min"),
            hi.trim().parse().expect("repeat max"),
        ),
        None => {
            let n = body.trim().parse().expect("repeat count");
            (n, n)
        }
    };
    (min, max, close + 1)
}

impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for atom in parse_pattern(self) {
            match atom {
                Atom::Class { chars, min, max } => {
                    let n = rng.gen_range(min..=max);
                    for _ in 0..n {
                        out.push(chars[rng.gen_range(0..chars.len())]);
                    }
                }
                Atom::AnyPrintable { min, max } => {
                    let n = rng.gen_range(min..=max);
                    for _ in 0..n {
                        // Mostly ASCII printable, some multibyte.
                        if rng.gen_bool(0.8) {
                            out.push(char::from(rng.gen_range(0x20u8..0x7F)));
                        } else {
                            out.push(PRINTABLE_EXTRA[rng.gen_range(0..PRINTABLE_EXTRA.len())]);
                        }
                    }
                }
            }
        }
        out
    }
}

// ---- collections ----------------------------------------------------------

/// Strategy modules mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;
        use std::ops::Range;

        /// A `Vec` strategy: `len` elements drawn from `element`.
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        /// Vectors with lengths in `size`, elements from `element`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let n = rng.gen_range(self.size.clone());
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// The usual glob import: strategies, macros, and the `prop` module.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, Strategy, TestCaseError,
    };
}

// ---- macros ---------------------------------------------------------------

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated cases.
#[macro_export]
macro_rules! proptest {
    ($(
        #[$attr:meta]
        fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )+) => {$(
        #[$attr]
        fn $name() {
            let cases = $crate::cases();
            for case in 0..cases {
                let mut proptest_rng = $crate::case_rng(stringify!($name), case);
                $(
                    let $arg =
                        $crate::Strategy::generate(&($strategy), &mut proptest_rng);
                )+
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "property {} failed on case {}/{}: {}\ninputs: {:#?}",
                        stringify!($name),
                        case + 1,
                        cases,
                        e,
                        ($((stringify!($arg), &$arg)),+,)
                    );
                }
            }
        }
    )+};
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn regex_subset_generates_within_spec() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = "[a-c]{0,25}".generate(&mut rng);
            assert!(s.len() <= 25 && s.chars().all(|c| ('a'..='c').contains(&c)));
            let t = "[ab]{65,140}".generate(&mut rng);
            assert!((65..=140).contains(&t.len()));
            let p = "\\PC{0,80}".generate(&mut rng);
            assert!(p.chars().count() <= 80);
            assert!(!p.chars().any(|c| c.is_control() && c != '\u{200D}'));
            let m = "[a-z ,.!?]{0,60}".generate(&mut rng);
            assert!(m
                .chars()
                .all(|c| c.is_ascii_lowercase() || " ,.!?".contains(c)));
        }
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let strat = prop::collection::vec(0u8..4, 0..20);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v.len() < 20);
            assert!(v.iter().all(|&b| b < 4));
        }
    }

    proptest! {
        #[test]
        fn macro_plumbing_works(a in 0usize..10, s in "[ab]{0,5}") {
            prop_assert!(a < 10);
            prop_assert_eq!(s.len(), s.chars().count());
            prop_assert_ne!(a, 10);
        }
    }
}
