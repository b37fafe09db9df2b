//! Replacement policies for the TLB structures.
//!
//! The paper assumes plain LRU everywhere but explicitly flags richer
//! policies as future work: "there may be benefits in prioritizing
//! entries with different coalescing amounts differently" (§4.1.5) and
//! "due to its smaller size, we suspect smarter replacement policies
//! will be even more effective" for the fully-associative TLB (§4.2.3).
//! [`ReplacementPolicy::SmallestCoalescedFirst`] implements that idea:
//! when a victim is needed, prefer the entry covering the fewest
//! translations (ties broken by recency), so high-reach entries survive.

use std::cmp::Reverse;

/// Victim-selection policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used entry (the paper's baseline).
    #[default]
    Lru,
    /// Evict the least-recently-used entry among those with the smallest
    /// coalescing length — the §4.1.5 future-work policy.
    SmallestCoalescedFirst,
}

impl ReplacementPolicy {
    /// Picks the victim from `entries`, described by
    /// `(lru_rank, coalesced_len)` pairs where **higher** `lru_rank`
    /// means staler (0 = most recently used), and returns its position
    /// in the sequence. Candidates are scanned in place; nothing is
    /// collected.
    ///
    /// # Panics
    /// Panics on an empty candidate sequence.
    pub fn choose_victim(self, entries: impl IntoIterator<Item = (usize, u64)>) -> usize {
        let entries = entries.into_iter().enumerate();
        let victim = match self {
            ReplacementPolicy::Lru => entries.max_by_key(|&(_, (rank, _))| rank),
            ReplacementPolicy::SmallestCoalescedFirst => {
                entries.min_by_key(|&(_, (rank, len))| (len, Reverse(rank)))
            }
        };
        victim.map(|(i, _)| i).expect("victim selection needs candidates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_stalest() {
        // (lru_rank, len): index 2 is stalest.
        let entries = [(0, 8), (1, 1), (3, 4), (2, 2)];
        assert_eq!(ReplacementPolicy::Lru.choose_victim(entries), 2);
    }

    #[test]
    fn coalesced_first_prefers_small_entries() {
        // Singleton at index 1 goes first even though index 2 is staler.
        let entries = [(0, 8), (1, 1), (3, 4), (2, 2)];
        assert_eq!(
            ReplacementPolicy::SmallestCoalescedFirst.choose_victim(entries),
            1
        );
    }

    #[test]
    fn coalesced_first_breaks_ties_by_staleness() {
        // Two singletons: the staler one (rank 3, index 2) goes.
        let entries = [(0, 4), (1, 1), (3, 1)];
        assert_eq!(
            ReplacementPolicy::SmallestCoalescedFirst.choose_victim(entries),
            2
        );
    }

    #[test]
    #[should_panic(expected = "candidates")]
    fn empty_candidates_panic() {
        ReplacementPolicy::Lru.choose_victim([]);
    }
}
