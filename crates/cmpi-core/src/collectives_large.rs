//! Large-message collective algorithms and size-based algorithm
//! selection (MVAPICH2-style tuning).
//!
//! The default algorithms (binomial bcast, recursive-doubling allreduce)
//! move the full vector every round — optimal for latency, wasteful for
//! bandwidth. Above a switch size the library uses:
//!
//! * **Rabenseifner allreduce**: reduce-scatter by recursive halving,
//!   then allgather by recursive doubling — each rank moves `2·len·(n-1)/n`
//!   elements instead of `len·log2(n)`;
//! * **scatter–allgather broadcast**: the root scatters blocks down the
//!   binomial tree, then a ring allgather reassembles — same bandwidth
//!   bound.
//!
//! The main entry points (`Mpi::bcast`, `Mpi::allreduce`) reach these
//! algorithms only through the [`crate::coll_select::CollectiveSelector`],
//! once the message crosses `MV2_COLL_LARGE_MSG` (Rabenseifner also needs
//! a power-of-two world), like MVAPICH2's tuning tables.

use crate::collectives::tag;
use crate::datatype::{from_bytes, reduce_into, to_bytes, zeroed, MpiData, ReduceOp, Reducible};
use crate::pt2pt::CTX_COLL;
use crate::runtime::Mpi;

mod lop {
    pub const RABEN: u32 = 48;
    pub const SA_BCAST: u32 = 50;
}

impl Mpi {
    /// Rabenseifner's algorithm: recursive-halving reduce-scatter then
    /// recursive-doubling allgather. Requires a power-of-two rank count.
    pub(crate) fn allreduce_rabenseifner_inner<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
    ) -> Vec<T> {
        let n = self.n;
        assert!(
            n.is_power_of_two(),
            "Rabenseifner requires a power-of-two group"
        );
        let rank = self.rank;
        // Pad so the vector splits into n equal chunks. Padded positions
        // only ever combine with other ranks' padding and are dropped at
        // the end, so their values are irrelevant.
        let chunk = data.len().div_ceil(n).max(1);
        let mut vec = data.to_vec();
        vec.resize(chunk * n, zeroed::<T>(1)[0]);

        // Phase 1: reduce-scatter by recursive halving. `lo..hi` is the
        // chunk range this rank is still responsible for.
        let mut lo = 0usize;
        let mut hi = n;
        let mut mask = n / 2;
        let mut round = 0u32;
        while mask > 0 {
            let partner = rank ^ mask;
            let mid = (lo + hi) / 2;
            // The half containing my rank index stays mine.
            let (keep_lo, keep_hi, send_lo, send_hi) = if rank & mask == 0 {
                (lo, mid, mid, hi)
            } else {
                (mid, hi, lo, mid)
            };
            let payload = to_bytes(&vec[send_lo * chunk..send_hi * chunk]);
            let sid = self.isend_inner(payload, partner, tag(lop::RABEN, round), CTX_COLL);
            let rid = self.irecv_inner(Some(partner), Some(tag(lop::RABEN, round)), CTX_COLL);
            let bytes = self.wait_recv_inner(rid).0;
            self.wait_send_inner(sid);
            let mut incoming = zeroed((keep_hi - keep_lo) * chunk);
            from_bytes(&bytes, &mut incoming);
            reduce_into(rop, &mut vec[keep_lo * chunk..keep_hi * chunk], &incoming);
            lo = keep_lo;
            hi = keep_hi;
            mask >>= 1;
            round += 1;
        }
        debug_assert_eq!(hi - lo, 1, "reduce-scatter must end with one chunk");

        // Phase 2: allgather by recursive doubling, reversing the halving.
        let mut mask = 1usize;
        while mask < n {
            let partner = rank ^ mask;
            // The region owned before this round has `mask` chunks,
            // aligned to a multiple of `mask`; the partner owns the
            // mirror region.
            let region = mask;
            let my_lo = lo & !(region - 1);
            let partner_lo = my_lo ^ region;
            let payload = to_bytes(&vec[my_lo * chunk..(my_lo + region) * chunk]);
            let sid = self.isend_inner(payload, partner, tag(lop::RABEN, round), CTX_COLL);
            let rid = self.irecv_inner(Some(partner), Some(tag(lop::RABEN, round)), CTX_COLL);
            let bytes = self.wait_recv_inner(rid).0;
            self.wait_send_inner(sid);
            let mut incoming = zeroed(region * chunk);
            from_bytes(&bytes, &mut incoming);
            vec[partner_lo * chunk..(partner_lo + region) * chunk].copy_from_slice(&incoming);
            mask <<= 1;
            round += 1;
        }
        vec.truncate(data.len());
        vec
    }

    /// Scatter–allgather broadcast: the root scatters `n` blocks, a ring
    /// allgather reassembles them everywhere.
    pub(crate) fn bcast_scatter_allgather_inner<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let n = self.n;
        let rank = self.rank;
        let chunk = buf.len().div_ceil(n).max(1);
        // Scatter: root sends block i to rank (root + i) % n (linear; the
        // per-block size already amortizes the latency).
        let my_block_idx = (rank + n - root) % n;
        let mut padded = zeroed(chunk * n);
        if rank == root {
            padded[..buf.len()].copy_from_slice(buf);
            let mut reqs = Vec::new();
            for i in 1..n {
                let dst = (root + i) % n;
                let payload = to_bytes(&padded[i * chunk..(i + 1) * chunk]);
                reqs.push(self.isend_inner(payload, dst, tag(lop::SA_BCAST, 0), CTX_COLL));
            }
            for id in reqs {
                self.wait_send_inner(id);
            }
        } else {
            let rid = self.irecv_inner(Some(root), Some(tag(lop::SA_BCAST, 0)), CTX_COLL);
            let bytes = self.wait_recv_inner(rid).0;
            from_bytes(
                &bytes,
                &mut padded[my_block_idx * chunk..(my_block_idx + 1) * chunk],
            );
        }
        // Ring allgather of the blocks.
        if n > 1 {
            let right = (rank + 1) % n;
            let left = (rank + n - 1) % n;
            for step in 0..n - 1 {
                let send_block = (my_block_idx + n - step) % n;
                let recv_block = (my_block_idx + n - step - 1) % n;
                let payload = to_bytes(&padded[send_block * chunk..(send_block + 1) * chunk]);
                let sid = self.isend_inner(
                    payload,
                    right,
                    tag(lop::SA_BCAST, 1 + step as u32),
                    CTX_COLL,
                );
                let rid = self.irecv_inner(
                    Some(left),
                    Some(tag(lop::SA_BCAST, 1 + step as u32)),
                    CTX_COLL,
                );
                let bytes = self.wait_recv_inner(rid).0;
                self.wait_send_inner(sid);
                from_bytes(
                    &bytes,
                    &mut padded[recv_block * chunk..(recv_block + 1) * chunk],
                );
            }
        }
        buf.copy_from_slice(&padded[..buf.len()]);
    }
}
