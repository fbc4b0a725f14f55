//! TDC data snippets and their classification — Figure 4.
//!
//! A *snippet* is the raw word captured by the `n` fast delay lines at
//! one sampling instant: `n` lines of `m` bits each (`C_{i,j}` in the
//! paper's Figure 5). The paper's Figure 4 illustrates the three
//! phenomena the extractor must cope with:
//!
//! * **(a) regular sampling** — exactly one signal edge captured;
//! * **(b) double edge** — the line delay exceeds the oscillator stage
//!   delay, so a second edge enters the next line;
//! * **(c) bubbles** — metastable flip-flops flip isolated bits near
//!   the edge.
//!
//! [`Snippet::classify`] reproduces that taxonomy (plus the
//! missed-edge case that drove the `m = 32 → 36` decision in
//! Section 5.2), and [`Snippet`]'s `Display` renders the same
//! oscilloscope-style picture as the figure.

use core::fmt;

/// The raw capture of all delay lines at one sampling instant.
///
/// Line `i` observes oscillator node `i`; within a line, tap 0 is the
/// most recent instant (smallest look-back) and tap `m − 1` the oldest.
///
/// # Examples
///
/// ```
/// use trng_core::snippet::{Snippet, SnippetKind};
///
/// // One clean edge in an 8-tap, 1-line snippet.
/// let s = Snippet::new(vec![vec![true, true, true, false, false, false, false, false]]);
/// assert_eq!(s.classify(), SnippetKind::Regular);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snippet {
    /// Packed tap bits: one word per line, LSB = tap 0. Bits past `m`
    /// are always zero.
    words: Vec<u64>,
    /// Number of delay lines `n`.
    n: usize,
    /// Taps per line `m` (`1..=64`).
    m: usize,
}

/// Figure-4 taxonomy of a snippet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnippetKind {
    /// Exactly one edge in the XOR-combined code — Figure 4 (a).
    Regular,
    /// More than one well-separated edge — Figure 4 (b).
    DoubleEdge,
    /// Isolated flipped bits adjacent to an edge — Figure 4 (c).
    Bubbled,
    /// No edge captured anywhere (the failure mode of `m = 32`).
    NoEdge,
}

impl fmt::Display for SnippetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SnippetKind::Regular => "regular",
            SnippetKind::DoubleEdge => "double edge",
            SnippetKind::Bubbled => "bubbled",
            SnippetKind::NoEdge => "no edge",
        };
        f.write_str(s)
    }
}

impl Snippet {
    /// Wraps raw line captures.
    ///
    /// # Panics
    ///
    /// Panics if there are no lines, any line is empty or longer than
    /// 64 taps, or lines have unequal lengths.
    pub fn new(lines: Vec<Vec<bool>>) -> Self {
        assert!(!lines.is_empty(), "snippet needs at least one line");
        let m = lines[0].len();
        assert_taps(m);
        assert!(
            lines.iter().all(|l| l.len() == m),
            "all lines must have equal length"
        );
        Snippet {
            words: lines
                .iter()
                .map(|line| {
                    line.iter()
                        .enumerate()
                        .fold(0u64, |w, (j, &b)| w | u64::from(b) << j)
                })
                .collect(),
            n: lines.len(),
            m,
        }
    }

    /// Wraps already-packed line words (one `u64` per line, tap 0 in
    /// the LSB) — the allocation-light entry used by the sampling hot
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is empty or `m` is not in `1..=64`.
    pub fn from_packed_words(lines: &[u64], m: usize) -> Self {
        assert!(!lines.is_empty(), "snippet needs at least one line");
        assert_taps(m);
        let mask = u64::MAX >> (64 - m);
        Snippet {
            words: lines.iter().map(|&w| w & mask).collect(),
            n: lines.len(),
            m,
        }
    }

    /// Number of delay lines `n`.
    pub fn num_lines(&self) -> usize {
        self.n
    }

    /// Taps per line `m`.
    pub fn taps_per_line(&self) -> usize {
        self.m
    }

    /// The bit captured by tap `j` of line `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn bit(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.m, "tap ({i}, {j}) out of range");
        self.words[i] >> j & 1 == 1
    }

    /// The raw lines, unpacked to bit vectors (for figures/stattests
    /// that want to look at individual taps).
    pub fn lines(&self) -> Vec<Vec<bool>> {
        (0..self.n)
            .map(|i| (0..self.m).map(|j| self.bit(i, j)).collect())
            .collect()
    }

    /// The XOR of all lines as one packed word (tap 0 in the LSB) —
    /// the form the extractor and the classifier consume.
    pub fn xor_word(&self) -> u64 {
        self.words.iter().fold(0u64, |x, &w| x ^ w)
    }

    /// The bit-wise XOR of all lines — the first stage of the entropy
    /// extractor (Figure 5). Every oscillator transition inside the
    /// observation window appears as one edge in this vector.
    pub fn xor_vector(&self) -> Vec<bool> {
        let x = self.xor_word();
        (0..self.m).map(|j| x >> j & 1 == 1).collect()
    }

    /// Positions `j` where `xor_vector[j] != xor_vector[j+1]`, i.e. the
    /// boundaries at which the combined code changes value.
    pub fn edge_positions(&self) -> Vec<usize> {
        let x = self.xor_word();
        (0..self.m.saturating_sub(1))
            .filter(|&j| (x >> j ^ x >> (j + 1)) & 1 == 1)
            .collect()
    }

    /// Classifies the snippet per Figure 4.
    ///
    /// Edges separated by exactly one tap are treated as one bubble
    /// event (an isolated flipped bit), not as genuine double edges;
    /// genuine double edges are ~`d0/tstep` ≈ 28 taps apart.
    pub fn classify(&self) -> SnippetKind {
        Snippet::classify_word(self.xor_word(), self.m)
    }

    /// Classifies a packed XOR-combined code word (`m ≤ 64`, tap 0 in
    /// the LSB) without materializing a snippet.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not in `1..=64`.
    pub fn classify_word(xor: u64, m: usize) -> SnippetKind {
        assert!(
            (1..=64).contains(&m),
            "packed classification supports at most 64 taps, got {m}"
        );
        if m < 2 {
            return SnippetKind::NoEdge;
        }
        const BY_INDEX: [SnippetKind; 4] = [
            SnippetKind::NoEdge,
            SnippetKind::Regular,
            SnippetKind::DoubleEdge,
            SnippetKind::Bubbled,
        ];
        BY_INDEX[kind_index(xor, edge_mask(m))]
    }
}

/// Panics unless `m` is a legal line width: one word, `1..=64` taps.
fn assert_taps(m: usize) {
    assert!(m >= 1, "lines must be non-empty");
    assert!(
        m <= 64,
        "packed construction supports at most 64 taps, got {m}"
    );
}

/// Edge mask for `m`-tap lines (`2 ≤ m ≤ 64`): bit j flags taps j and
/// j + 1 differing.
#[inline]
pub(crate) fn edge_mask(m: usize) -> u64 {
    u64::MAX >> (65 - m)
}

/// The snippet census: a captured XOR word's kind as an index into
/// no edge, regular, double edge, bubbled — [`Snippet::classify_word`]'s
/// order. Adjacent set bits in the edge word are edges one tap apart:
/// an isolated flipped bit, i.e. a bubble (so at least two edges).
/// Flag arithmetic, not a branch: the kind is data-dependent on every
/// sample (about one in four is double-edge on `paper_k1`), and a
/// branch on it mispredicts.
#[inline]
pub(crate) fn kind_index(xor: u64, edge_mask: u64) -> usize {
    let diff = (xor ^ (xor >> 1)) & edge_mask;
    let bubbled = diff & (diff >> 1) != 0;
    diff.count_ones().min(2) as usize + usize::from(bubbled)
}

impl fmt::Display for Snippet {
    /// Renders the snippet like Figure 4: one row per line, `1`/`0`
    /// per tap, tap 0 leftmost.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            write!(f, "line {i}: ")?;
            for j in 0..self.m {
                f.write_str(if self.bit(i, j) { "1" } else { "0" })?;
            }
            writeln!(f)?;
        }
        write!(f, "xor   : ")?;
        for b in self.xor_vector() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn regular_snippet() {
        let s = Snippet::new(vec![bits("11100000")]);
        assert_eq!(s.classify(), SnippetKind::Regular);
        assert_eq!(s.edge_positions(), vec![2]);
    }

    #[test]
    fn xor_combines_lines() {
        // Two lines whose XOR has a single edge.
        let s = Snippet::new(vec![bits("11110000"), bits("00011000")]);
        assert_eq!(s.xor_vector(), bits("11101000"));
        assert_eq!(s.num_lines(), 2);
        assert_eq!(s.taps_per_line(), 8);
    }

    #[test]
    fn double_edge_snippet() {
        // Edges at positions 1 and 5 — well separated.
        let s = Snippet::new(vec![bits("11000011")]);
        assert_eq!(s.classify(), SnippetKind::DoubleEdge);
        assert_eq!(s.edge_positions(), vec![1, 5]);
    }

    #[test]
    fn bubbled_snippet() {
        // Isolated flipped bit at position 2 next to the main edge at 4.
        let s = Snippet::new(vec![bits("11011000")]);
        // edges at 1,2 (around the bubble) and 4.
        assert_eq!(s.classify(), SnippetKind::Bubbled);
    }

    #[test]
    fn no_edge_snippet() {
        let s = Snippet::new(vec![bits("11111111")]);
        assert_eq!(s.classify(), SnippetKind::NoEdge);
        let s = Snippet::new(vec![bits("0000")]);
        assert_eq!(s.classify(), SnippetKind::NoEdge);
    }

    #[test]
    fn all_ones_xor_of_two_constant_lines_has_no_edge() {
        let s = Snippet::new(vec![bits("1111"), bits("0000")]);
        assert_eq!(s.classify(), SnippetKind::NoEdge);
    }

    #[test]
    fn display_renders_figure4_style() {
        let s = Snippet::new(vec![bits("1100"), bits("0010")]);
        let out = format!("{s}");
        assert!(out.contains("line 0: 1100"));
        assert!(out.contains("line 1: 0010"));
        assert!(out.contains("xor   : 1110"));
    }

    #[test]
    fn kind_display() {
        assert_eq!(format!("{}", SnippetKind::Regular), "regular");
        assert_eq!(format!("{}", SnippetKind::DoubleEdge), "double edge");
        assert_eq!(format!("{}", SnippetKind::Bubbled), "bubbled");
        assert_eq!(format!("{}", SnippetKind::NoEdge), "no edge");
    }

    #[test]
    fn packed_constructor_matches_bool_constructor() {
        let a = Snippet::new(vec![bits("11110000"), bits("00011000")]);
        let b = Snippet::from_packed_words(&[0b0000_1111, 0b0001_1000], 8);
        assert_eq!(a, b);
        assert_eq!(b.lines(), vec![bits("11110000"), bits("00011000")]);
        assert!(b.bit(0, 0));
        assert!(!b.bit(1, 0));
    }

    #[test]
    fn packed_constructor_masks_stray_high_bits() {
        let a = Snippet::from_packed_words(&[0b0111], 3);
        let b = Snippet::from_packed_words(&[!0u64 << 3 | 0b0111], 3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at most 64 taps")]
    fn packed_constructor_rejects_wide_lines() {
        let _ = Snippet::from_packed_words(&[0, 0], 65);
    }

    #[test]
    #[should_panic(expected = "at most 64 taps")]
    fn bool_constructor_rejects_wide_lines() {
        let _ = Snippet::new(vec![vec![true; 65]]);
    }

    #[test]
    fn classify_word_matches_exhaustively_at_width_8() {
        for w in 0..256u64 {
            let line: Vec<bool> = (0..8).map(|j| w >> j & 1 == 1).collect();
            let via_vec = Snippet::new(vec![line]);
            // Reference taxonomy straight from edge positions.
            let edges = via_vec.edge_positions();
            let expected = match edges.len() {
                0 => SnippetKind::NoEdge,
                1 => SnippetKind::Regular,
                _ if edges.windows(2).any(|p| p[1] - p[0] == 1) => SnippetKind::Bubbled,
                _ => SnippetKind::DoubleEdge,
            };
            assert_eq!(Snippet::classify_word(w, 8), expected, "pattern {w:08b}");
            assert_eq!(via_vec.classify(), expected, "pattern {w:08b}");
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_ragged_lines() {
        let _ = Snippet::new(vec![bits("110"), bits("11")]);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn rejects_empty() {
        let _ = Snippet::new(vec![]);
    }
}
