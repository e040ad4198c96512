//! Energy-bit digests and the recorded values for the default seed.

/// The seed whose digests are recorded below. Any other seed is a
/// held-out seed: its outputs get the validator checks only.
pub const DEFAULT_SEED: u64 = 2006;

/// Digest of every energy bit pattern a workload's reference pass
/// produced on [`DEFAULT_SEED`], recorded from the code this benchmark
/// was written against.
const RECORDED: [(&str, u64); 4] = [
    ("fig10", 0xcf70_c4fd_cac3_d9a4),
    ("campaign", 0xd96c_3311_8b3e_f8a3),
    ("serve", 0x402d_f190_065f_85ea),
    ("online", 0x2740_4fe9_31e0_b8f4),
];

/// FNV-1a over a sequence of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The digest of `words`.
pub fn of(words: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &w in words {
        d.push(w);
    }
    d.value()
}

/// The recorded digest for `workload` on `seed`, if there is one.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    RECORDED
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, d)| d)
}

/// Positions where `observed` differs from `reference` bit for bit
/// (including a length difference, reported at the shorter length).
pub fn mismatches(reference: &[u64], observed: &[u64]) -> Vec<usize> {
    let mut out: Vec<usize> = reference
        .iter()
        .zip(observed)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect();
    if reference.len() != observed.len() {
        out.push(reference.len().min(observed.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_flipped_energy_bit_is_caught() {
        let reference: Vec<u64> = [1.25f64, 3.5, 0.0078125].map(f64::to_bits).to_vec();
        let mut observed = reference.clone();
        observed[1] ^= 1; // lowest mantissa bit of one energy
        assert_eq!(mismatches(&reference, &observed), vec![1]);
        assert_ne!(of(&reference), of(&observed));
        assert!(mismatches(&reference, &reference).is_empty());
    }
}
