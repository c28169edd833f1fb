//! Per-rank data state: the accumulator and block table a schedule's
//! send/recv steps read and write.
//!
//! Both data executors ([`crate::run_local`] and [`crate::run_blocking`])
//! hold one `RankState` per participating rank and drive it through
//! exactly the same calls — `RankState::payload` to materialize
//! outgoing bytes and `RankState::apply` to fold in arrivals — so the
//! data path is backend-independent by construction.

use crate::op::{combine_bytes, pack_blocks, unpack_blocks, CollOp, Dtype, ReduceOp};
use crate::schedule::{RecvWhat, SendWhat};

/// The element interpretation of a reducing collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reduction {
    /// Element encoding of the payload.
    pub dtype: Dtype,
    /// Combine operator.
    pub op: ReduceOp,
}

/// What a rank ends up with after a collective completes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollOutput {
    /// Final accumulator (bcast payload, reduction result); empty for
    /// barrier and allgather.
    pub acc: Vec<u8>,
    /// Gathered blocks in virtual-rank order; empty unless the op is an
    /// allgather.
    pub blocks: Vec<Vec<u8>>,
}

/// One rank's mutable data state while a schedule executes.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankState {
    acc: Vec<u8>,
    blocks: Vec<Option<Vec<u8>>>,
}

impl RankState {
    /// Initial state for virtual rank `vrank` of an `op` over `n` ranks,
    /// seeded with this rank's `contribution` (ignored where the op
    /// takes none, e.g. barrier or a non-root bcast rank).
    pub(crate) fn init(op: CollOp, n: usize, vrank: usize, contribution: &[u8]) -> RankState {
        match op {
            CollOp::Barrier => RankState::default(),
            CollOp::Bcast => {
                let mut blocks = vec![None; 1];
                if vrank == 0 {
                    blocks[0] = Some(contribution.to_vec());
                }
                RankState {
                    acc: Vec::new(),
                    blocks,
                }
            }
            CollOp::Reduce | CollOp::Allreduce => RankState {
                acc: contribution.to_vec(),
                blocks: Vec::new(),
            },
            CollOp::Allgather => {
                let mut blocks = vec![None; n];
                blocks[vrank] = Some(contribution.to_vec());
                RankState {
                    acc: Vec::new(),
                    blocks,
                }
            }
        }
    }

    /// Materialize the outgoing bytes for a send step. A single block
    /// travels raw; several are framed with [`crate::op::pack_blocks`].
    /// [`crate::op::send_len`] gives the same length without the bytes.
    /// A range wraps at the block table's length: the rank count for an
    /// allgather, and its one slot for a bcast.
    pub(crate) fn payload(&self, what: SendWhat) -> Vec<u8> {
        match what {
            SendWhat::Token => Vec::new(),
            SendWhat::Acc => self.acc.clone(),
            SendWhat::Blocks(range) if range.count == 1 => self.block(range.first).to_vec(),
            SendWhat::Blocks(range) => {
                let slots = range.slots(self.blocks.len());
                pack_blocks(&slots.map(|i| self.block(i)).collect::<Vec<_>>())
            }
        }
    }

    /// Fold arriving `bytes` into this rank's state per the recv step.
    /// `reduction` must be `Some` whenever the step is `CombineAcc`.
    pub(crate) fn apply(&mut self, what: RecvWhat, bytes: &[u8], reduction: Option<Reduction>) {
        match what {
            RecvWhat::Token => {
                assert!(
                    bytes.is_empty(),
                    "token message carried {} bytes",
                    bytes.len()
                );
            }
            RecvWhat::CombineAcc => {
                #[expect(
                    clippy::expect_used,
                    reason = "the planner emits CombineAcc only for reducing ops, where executors always pass a reduction"
                )]
                let r = reduction.expect("CombineAcc step without a reduction");
                combine_bytes(r.dtype, r.op, &mut self.acc, bytes);
            }
            RecvWhat::ReplaceAcc => {
                self.acc.clear();
                self.acc.extend_from_slice(bytes);
            }
            RecvWhat::Blocks(range) if range.count == 1 => {
                self.store_block(range.first, bytes.to_vec());
            }
            RecvWhat::Blocks(range) => {
                let parts = unpack_blocks(bytes, range.count as usize);
                for (idx, part) in range.slots(self.blocks.len()).zip(parts) {
                    self.store_block(idx, part);
                }
            }
        }
    }

    /// Consume the state into the rank's final output. `vrank` selects
    /// what this rank is entitled to (only the reduce root keeps an
    /// accumulator, for instance).
    pub(crate) fn into_output(self, op: CollOp, vrank: usize) -> CollOutput {
        match op {
            CollOp::Barrier => CollOutput::default(),
            CollOp::Bcast => {
                #[expect(clippy::expect_used, reason = "init() sized it")]
                let [slot] = <[Option<Vec<u8>>; 1]>::try_from(self.blocks)
                    .expect("bcast state has exactly one block slot");
                CollOutput {
                    #[expect(
                        clippy::expect_used,
                        reason = "a validated schedule delivers block 0 to every rank"
                    )]
                    acc: slot.expect("bcast finished without the payload arriving"),
                    blocks: Vec::new(),
                }
            }
            CollOp::Reduce => {
                if vrank == 0 {
                    CollOutput {
                        acc: self.acc,
                        blocks: Vec::new(),
                    }
                } else {
                    CollOutput::default()
                }
            }
            CollOp::Allreduce => CollOutput {
                acc: self.acc,
                blocks: Vec::new(),
            },
            #[expect(
                clippy::panic,
                reason = "a validated schedule fills every slot; a hole is a planner bug"
            )]
            CollOp::Allgather => CollOutput {
                acc: Vec::new(),
                blocks: self
                    .blocks
                    .into_iter()
                    .enumerate()
                    .map(|(i, b)| {
                        b.unwrap_or_else(|| panic!("allgather finished with block {i} missing"))
                    })
                    .collect(),
            },
        }
    }

    #[expect(
        clippy::panic,
        reason = "the schedule's FIFO validation plus round order guarantee arrival; a miss is a planner bug"
    )]
    fn block(&self, idx: u32) -> &[u8] {
        self.blocks[idx as usize]
            .as_deref()
            .unwrap_or_else(|| panic!("send references block {idx} before it arrived"))
    }

    fn store_block(&mut self, idx: u32, bytes: Vec<u8>) {
        self.blocks[idx as usize] = Some(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::schedule::BlockRange;

    fn range(first: u32, count: u32) -> BlockRange {
        BlockRange { first, count }
    }

    #[test]
    fn allgather_state_roundtrips_blocks() {
        let mut s = RankState::init(CollOp::Allgather, 3, 1, b"one");
        assert_eq!(s.payload(SendWhat::Blocks(range(1, 1))), b"one");
        s.apply(RecvWhat::Blocks(range(0, 1)), b"zero", None);
        s.apply(RecvWhat::Blocks(range(2, 1)), b"two", None);
        let out = s.into_output(CollOp::Allgather, 1);
        assert_eq!(
            out.blocks,
            vec![b"zero".to_vec(), b"one".to_vec(), b"two".to_vec()]
        );
    }

    #[test]
    fn multi_block_payload_frames_and_unframes() {
        let mut a = RankState::init(CollOp::Allgather, 4, 2, b"cc");
        a.apply(RecvWhat::Blocks(range(3, 1)), b"ddd", None);
        let framed = a.payload(SendWhat::Blocks(range(2, 2)));
        let mut b = RankState::init(CollOp::Allgather, 4, 0, b"a");
        b.apply(RecvWhat::Blocks(range(2, 2)), &framed, None);
        assert_eq!(b.payload(SendWhat::Blocks(range(3, 1))), b"ddd");
    }

    #[test]
    fn reduce_combines_under_the_run_reduction() {
        let r = Reduction {
            dtype: Dtype::U64,
            op: ReduceOp::Sum,
        };
        let mut s = RankState::init(CollOp::Reduce, 2, 0, &5u64.to_le_bytes());
        s.apply(RecvWhat::CombineAcc, &7u64.to_le_bytes(), Some(r));
        let out = s.into_output(CollOp::Reduce, 0);
        assert_eq!(out.acc, 12u64.to_le_bytes());
    }

    #[test]
    fn non_root_reduce_output_is_empty() {
        let s = RankState::init(CollOp::Reduce, 2, 1, &5u64.to_le_bytes());
        assert_eq!(s.into_output(CollOp::Reduce, 1), CollOutput::default());
    }
}
