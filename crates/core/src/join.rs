//! Join sequences (left-deep join orders).

use std::fmt;

/// A join sequence `Z = (v_{z₁}, …, v_{z_n})`: a permutation of the vertices
/// `0..n`, read as the left-deep order in which relations enter the plan.
///
/// The sequence comprises `n − 1` join operations `J₁ … J_{n−1}`; `J_i` joins
/// the result of the first `i` relations with the relation at position
/// `i + 1` (paper §2.1.2).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct JoinSequence {
    order: Vec<usize>,
}

impl JoinSequence {
    /// Validates that `order` is a permutation of `0..order.len()`.
    pub fn new(order: Vec<usize>) -> Self {
        let n = order.len();
        let mut seen = vec![false; n];
        for &v in &order {
            assert!(v < n, "vertex {v} out of range");
            assert!(!seen[v], "vertex {v} repeated");
            seen[v] = true;
        }
        JoinSequence { order }
    }

    /// The identity sequence `0, 1, …, n−1`.
    pub fn identity(n: usize) -> Self {
        JoinSequence { order: (0..n).collect() }
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The underlying permutation.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Vertex at position `i` (0-based).
    pub fn at(&self, i: usize) -> usize {
        self.order[i]
    }

    /// The prefix of the first `i` vertices.
    pub fn prefix(&self, i: usize) -> &[usize] {
        &self.order[..i]
    }

    /// Position of vertex `v` in the sequence.
    #[expect(clippy::expect_used, reason = "a vertex outside the sequence is a caller bug")]
    pub fn position_of(&self, v: usize) -> usize {
        self.order.iter().position(|&u| u == v).expect("vertex in sequence")
    }
}

impl fmt::Debug for JoinSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Z{:?}", self.order)
    }
}

impl From<Vec<usize>> for JoinSequence {
    fn from(order: Vec<usize>) -> Self {
        JoinSequence::new(order)
    }
}

/// Iterator over all permutations of `0..n` (Heap's algorithm); intended for
/// exhaustive optimizers on small `n`.
pub fn permutations(n: usize) -> impl Iterator<Item = Vec<usize>> {
    // Simple lexicographic generation via next_permutation.
    struct Perms {
        cur: Option<Vec<usize>>,
    }
    impl Iterator for Perms {
        type Item = Vec<usize>;
        fn next(&mut self) -> Option<Vec<usize>> {
            let out = self.cur.clone()?;
            self.cur = next_permutation(out.clone());
            Some(out)
        }
    }
    Perms { cur: Some((0..n).collect()) }
}

fn next_permutation(mut v: Vec<usize>) -> Option<Vec<usize>> {
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut i = n - 1;
    while i > 0 && v[i - 1] >= v[i] {
        i -= 1;
    }
    if i == 0 {
        return None;
    }
    let mut j = n - 1;
    while v[j] <= v[i - 1] {
        j -= 1;
    }
    v.swap(i - 1, j);
    v[i..].reverse();
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_permutation_accepted() {
        let z = JoinSequence::new(vec![2, 0, 1]);
        assert_eq!(z.len(), 3);
        assert_eq!(z.at(0), 2);
        assert_eq!(z.prefix(2), &[2, 0]);
        assert_eq!(z.position_of(1), 2);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn duplicate_rejected() {
        JoinSequence::new(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        JoinSequence::new(vec![0, 3]);
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(0).count(), 1);
        assert_eq!(permutations(1).count(), 1);
        assert_eq!(permutations(4).count(), 24);
        assert_eq!(permutations(5).count(), 120);
    }

    #[test]
    fn permutations_unique_and_valid() {
        let all: Vec<Vec<usize>> = permutations(4).collect();
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for p in all {
            let _ = JoinSequence::new(p); // validation panics on bad output
        }
    }
}
