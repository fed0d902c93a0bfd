//! LCS-based token diffs and alignments.
//!
//! Coach instruction tuning, as reproduced here, learns *revision rules* by
//! aligning an original instruction pair `x` with its expert-revised version
//! `x_r` (§II-F1). The alignment is a token-level edit script: runs of equal
//! tokens interleaved with replace/insert/delete chunks. Each non-equal chunk
//! becomes a candidate rule for the phrase-rule transducer in `coachlm-lm`.

use std::ops::Range;

/// One operation of an [`EditScript`], expressed as token ranges into the
/// two input sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// `a[a_range]` equals `b[b_range]` (ranges have equal length).
    Equal {
        /// Range in the first sequence.
        a_range: Range<usize>,
        /// Range in the second sequence.
        b_range: Range<usize>,
    },
    /// `a[a_range]` was deleted.
    Delete {
        /// Range in the first sequence.
        a_range: Range<usize>,
    },
    /// `b[b_range]` was inserted.
    Insert {
        /// Range in the second sequence.
        b_range: Range<usize>,
    },
    /// `a[a_range]` was replaced by `b[b_range]`.
    Replace {
        /// Range in the first sequence.
        a_range: Range<usize>,
        /// Range in the second sequence.
        b_range: Range<usize>,
    },
}

impl EditOp {
    /// Whether this op changes anything.
    pub fn is_change(&self) -> bool {
        !matches!(self, EditOp::Equal { .. })
    }
}

/// An ordered sequence of [`EditOp`]s covering both inputs exactly once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditScript {
    /// The operations, in input order.
    pub ops: Vec<EditOp>,
}

impl EditScript {
    /// Number of changed tokens (deleted + inserted + replaced on both
    /// sides), a rough "revision magnitude".
    pub fn change_weight(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                EditOp::Equal { .. } => 0,
                EditOp::Delete { a_range } => a_range.len(),
                EditOp::Insert { b_range } => b_range.len(),
                EditOp::Replace { a_range, b_range } => a_range.len().max(b_range.len()),
            })
            .sum()
    }

    /// Whether the script is a pure copy (no changes).
    pub fn is_identity(&self) -> bool {
        self.ops.iter().all(|op| !op.is_change())
    }

    /// Iterates the changed chunks as `(a_range, b_range)` pairs, where an
    /// insert has an empty `a_range` anchored at its position and a delete an
    /// empty `b_range`.
    pub fn changes(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        let mut a_pos = 0usize;
        let mut b_pos = 0usize;
        self.ops.iter().filter_map(move |op| match op {
            EditOp::Equal { a_range, b_range } => {
                a_pos = a_range.end;
                b_pos = b_range.end;
                None
            }
            EditOp::Delete { a_range } => {
                let out = (a_range.clone(), b_pos..b_pos);
                a_pos = a_range.end;
                Some(out)
            }
            EditOp::Insert { b_range } => {
                let out = (a_pos..a_pos, b_range.clone());
                b_pos = b_range.end;
                Some(out)
            }
            EditOp::Replace { a_range, b_range } => {
                let out = (a_range.clone(), b_range.clone());
                a_pos = a_range.end;
                b_pos = b_range.end;
                Some(out)
            }
        })
    }
}

/// Computes the LCS-based edit script between two token slices.
///
/// O(nm) time and space; instruction pairs are at most a few hundred tokens,
/// so this is comfortably fast (and exact, unlike heuristic diffs).
pub fn diff_tokens<T: PartialEq>(a: &[T], b: &[T]) -> EditScript {
    // LCS DP table: lcs[i][j] = LCS length of a[i..], b[j..].
    let n = a.len();
    let m = b.len();
    let width = m + 1;
    let mut lcs = vec![0u32; (n + 1) * width];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i * width + j] = if a[i] == b[j] {
                lcs[(i + 1) * width + j + 1] + 1
            } else {
                lcs[(i + 1) * width + j].max(lcs[i * width + j + 1])
            };
        }
    }

    // Backtrack, emitting raw per-token ops, then coalesce.
    #[derive(Clone, Copy, PartialEq)]
    enum Raw {
        Eq,
        Del,
        Ins,
    }
    let mut raw = Vec::with_capacity(n + m);
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        if a[i] == b[j] {
            raw.push(Raw::Eq);
            i += 1;
            j += 1;
        } else if lcs[(i + 1) * width + j] >= lcs[i * width + j + 1] {
            raw.push(Raw::Del);
            i += 1;
        } else {
            raw.push(Raw::Ins);
            j += 1;
        }
    }
    raw.extend(std::iter::repeat_n(Raw::Del, n - i));
    raw.extend(std::iter::repeat_n(Raw::Ins, m - j));

    // Coalesce into ranged ops; adjacent Del+Ins runs merge into Replace.
    let mut ops: Vec<EditOp> = Vec::new();
    let (mut ai, mut bj) = (0usize, 0usize);
    let mut k = 0usize;
    while k < raw.len() {
        match raw[k] {
            Raw::Eq => {
                let (a0, b0) = (ai, bj);
                while k < raw.len() && raw[k] == Raw::Eq {
                    ai += 1;
                    bj += 1;
                    k += 1;
                }
                ops.push(EditOp::Equal {
                    a_range: a0..ai,
                    b_range: b0..bj,
                });
            }
            Raw::Del | Raw::Ins => {
                let (a0, b0) = (ai, bj);
                while k < raw.len() && raw[k] != Raw::Eq {
                    match raw[k] {
                        Raw::Del => ai += 1,
                        Raw::Ins => bj += 1,
                        Raw::Eq => unreachable!(),
                    }
                    k += 1;
                }
                ops.push(match (a0 == ai, b0 == bj) {
                    (false, false) => EditOp::Replace {
                        a_range: a0..ai,
                        b_range: b0..bj,
                    },
                    (false, true) => EditOp::Delete { a_range: a0..ai },
                    (true, false) => EditOp::Insert { b_range: b0..bj },
                    (true, true) => unreachable!("empty change chunk"),
                });
            }
        }
    }
    EditScript { ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(a: &str, b: &str) -> EditScript {
        let wa: Vec<&str> = a.split_whitespace().collect();
        let wb: Vec<&str> = b.split_whitespace().collect();
        diff_tokens(&wa, &wb)
    }

    #[test]
    fn identical_sequences() {
        let s = script("a b c", "a b c");
        assert!(s.is_identity());
        assert_eq!(s.change_weight(), 0);
        assert_eq!(s.ops.len(), 1);
    }

    #[test]
    fn pure_insert() {
        let s = script("a c", "a b c");
        assert_eq!(
            s.ops,
            vec![
                EditOp::Equal {
                    a_range: 0..1,
                    b_range: 0..1
                },
                EditOp::Insert { b_range: 1..2 },
                EditOp::Equal {
                    a_range: 1..2,
                    b_range: 2..3
                },
            ]
        );
        assert_eq!(s.change_weight(), 1);
    }

    #[test]
    fn pure_delete() {
        let s = script("a b c", "a c");
        assert_eq!(
            s.ops,
            vec![
                EditOp::Equal {
                    a_range: 0..1,
                    b_range: 0..1
                },
                EditOp::Delete { a_range: 1..2 },
                EditOp::Equal {
                    a_range: 2..3,
                    b_range: 1..2
                },
            ]
        );
    }

    #[test]
    fn replace_merges_del_ins() {
        let s = script("the quick fox", "the slow fox");
        assert_eq!(
            s.ops,
            vec![
                EditOp::Equal {
                    a_range: 0..1,
                    b_range: 0..1
                },
                EditOp::Replace {
                    a_range: 1..2,
                    b_range: 1..2
                },
                EditOp::Equal {
                    a_range: 2..3,
                    b_range: 2..3
                },
            ]
        );
    }

    #[test]
    fn disjoint_sequences() {
        let s = script("x y", "p q r");
        assert_eq!(s.ops.len(), 1);
        assert_eq!(
            s.ops[0],
            EditOp::Replace {
                a_range: 0..2,
                b_range: 0..3
            }
        );
        assert_eq!(s.change_weight(), 3);
    }

    #[test]
    fn empty_inputs() {
        let s = script("", "");
        assert!(s.ops.is_empty());
        let s = script("", "a b");
        assert_eq!(s.ops, vec![EditOp::Insert { b_range: 0..2 }]);
        let s = script("a b", "");
        assert_eq!(s.ops, vec![EditOp::Delete { a_range: 0..2 }]);
    }

    #[test]
    fn ranges_cover_inputs_exactly() {
        let a: Vec<&str> = "one two three four five".split_whitespace().collect();
        let b: Vec<&str> = "one two 3 four five six".split_whitespace().collect();
        let s = diff_tokens(&a, &b);
        let mut ai = 0;
        let mut bj = 0;
        for op in &s.ops {
            match op {
                EditOp::Equal { a_range, b_range } | EditOp::Replace { a_range, b_range } => {
                    assert_eq!(a_range.start, ai);
                    assert_eq!(b_range.start, bj);
                    ai = a_range.end;
                    bj = b_range.end;
                }
                EditOp::Delete { a_range } => {
                    assert_eq!(a_range.start, ai);
                    ai = a_range.end;
                }
                EditOp::Insert { b_range } => {
                    assert_eq!(b_range.start, bj);
                    bj = b_range.end;
                }
            }
        }
        assert_eq!(ai, a.len());
        assert_eq!(bj, b.len());
    }

    #[test]
    fn changes_iterator_yields_anchored_chunks() {
        let s = script("a b c d", "a X c d e");
        let chunks: Vec<_> = s.changes().collect();
        assert_eq!(chunks, vec![(1..2, 1..2), (4..4, 4..5)]);
    }

    #[test]
    fn change_weight_matches_levenshtein_lower_bound() {
        // change_weight >= edit distance (replace chunks may be uneven).
        let cases = [("a b c", "a c"), ("x y z", "x q r z"), ("m n", "n m")];
        for (a, b) in cases {
            let wa: Vec<&str> = a.split_whitespace().collect();
            let wb: Vec<&str> = b.split_whitespace().collect();
            let d = crate::editdist::edit_distance(&wa, &wb);
            assert!(diff_tokens(&wa, &wb).change_weight() >= d);
        }
    }
}
