//! Repeatable work is run in rounds (every op once per round) and every
//! round is cut into blocks, so the run can lay the blocks out between the
//! slices of the other phases: an op's executions end up seconds apart,
//! further than an interference burst is long.

use std::ops::Range;

/// Executions of every repeatable op; the fastest is the one that counts.
pub const ROUNDS: usize = 3;

/// Plans [`ROUNDS`] passes over `count` ops as `blocks` blocks.
#[derive(Debug, Clone)]
pub struct Rounds {
    count: usize,
    blocks_per_round: usize,
    done: usize,
}

impl Rounds {
    /// `blocks` is how many `next_block` calls cover all rounds (rounded down
    /// to a multiple of [`ROUNDS`], at least one block per round).
    pub fn new(count: usize, blocks: usize) -> Self {
        Rounds {
            count,
            blocks_per_round: (blocks / ROUNDS).max(1),
            done: 0,
        }
    }

    /// The next block as `(round, ops of that round)`, or `None` when all
    /// rounds are through.
    pub fn next_block(&mut self) -> Option<(usize, Range<usize>)> {
        let (round, block) = (
            self.done / self.blocks_per_round,
            self.done % self.blocks_per_round,
        );
        if round >= ROUNDS {
            return None;
        }
        self.done += 1;
        Some((
            round,
            block * self.count / self.blocks_per_round
                ..(block + 1) * self.count / self.blocks_per_round,
        ))
    }
}

/// Read rounds over seeded probes: the plan plus every probe's answer, so
/// that the first round fixes the answer and the later rounds must repeat it.
#[derive(Debug)]
pub struct ReadRounds<A> {
    plan: Rounds,
    answers: Vec<Option<A>>,
}

impl<A: PartialEq> ReadRounds<A> {
    pub fn new(probes: usize, blocks: usize) -> Self {
        ReadRounds {
            plan: Rounds::new(probes, blocks),
            answers: (0..probes).map(|_| None).collect(),
        }
    }

    pub fn next_block(&mut self) -> Option<(usize, Range<usize>)> {
        self.plan.next_block()
    }

    /// Judges probe `i`'s answer: the first one is kept (after
    /// `first_check`, e.g. the oracle), a later one must equal it.
    pub fn settle(
        &mut self,
        i: usize,
        answer: A,
        first_check: impl FnOnce(&A) -> Result<(), String>,
    ) -> Result<(), String> {
        match &self.answers[i] {
            None => {
                let checked = first_check(&answer);
                self.answers[i] = Some(answer);
                checked
            }
            Some(first) if *first == answer => Ok(()),
            Some(_) => Err("answer differs from the first round's".into()),
        }
    }

    /// The answers settled so far, by probe.
    pub fn answers(&self) -> impl Iterator<Item = Option<&A>> {
        self.answers.iter().map(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_runs_once_per_round_in_order() {
        let mut plan = Rounds::new(10, 12);
        let mut seen: Vec<Vec<usize>> = vec![Vec::new(); ROUNDS];
        let mut blocks = 0;
        while let Some((round, ops)) = plan.next_block() {
            seen[round].extend(ops);
            blocks += 1;
        }
        assert_eq!(blocks, 12);
        assert!(seen
            .iter()
            .all(|round| *round == (0..10).collect::<Vec<_>>()));
        assert!(plan.next_block().is_none());
        // Fewer blocks than rounds: still one block per round.
        let mut plan = Rounds::new(4, 1);
        assert_eq!(plan.next_block(), Some((0, 0..4)));
        assert_eq!(plan.next_block(), Some((1, 0..4)));
    }

    #[test]
    fn the_first_answer_is_checked_and_later_ones_must_repeat_it() {
        let mut rounds: ReadRounds<Vec<u64>> = ReadRounds::new(2, 3);
        assert!(rounds.settle(0, vec![1, 2], |_| Ok(())).is_ok());
        assert!(rounds
            .settle(0, vec![1, 2], |_| Err("not checked again".into()))
            .is_ok());
        assert!(rounds
            .settle(0, vec![1], |_| Ok(()))
            .unwrap_err()
            .contains("differs"));
        assert_eq!(
            rounds.settle(1, vec![], |_| Err("oracle".into())),
            Err("oracle".into())
        );
        assert_eq!(rounds.answers().filter(Option::is_some).count(), 2);
    }
}
