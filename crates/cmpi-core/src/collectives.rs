//! Collective operations over the point-to-point engine.
//!
//! Algorithms follow the MVAPICH2/MPICH defaults the paper runs on:
//! dissemination barrier, binomial broadcast/reduce/gather/scatter,
//! recursive-doubling allreduce, ring allgather and pairwise alltoall.
//! Because every collective decomposes into pt2pt transfers, the
//! locality-aware channel selection benefits collectives exactly the way
//! Section V-C reports: the intra-host fraction of the traffic moves from
//! the HCA loopback to SHM/CMA.
//!
//! Each flat algorithm is one fallible function over an explicit rank
//! list (`*_list`), shared by the world collectives, the communicator
//! collectives and the two-level composer. The composer runs every
//! SMP-aware schedule from one table, `SCHEDULE`: a root → leader
//! shuttle, an intra-group pre-exchange, group → leader, across the
//! leaders, leader → group, and a leader → root shuttle, each phase a
//! flat list algorithm over the job-shared locality `Partition`. The
//! public entry points route through the
//! [`crate::coll_select::CollectiveSelector`], so `ContainerDetector`
//! jobs pick up hierarchical scheduling automatically while the
//! `Hostname` ("Default") policy degenerates to the flat paths.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use crate::coll_select::{coll_trace_name, CollAlgo, CollKind};
use crate::datatype::{from_bytes, reduce_into, to_bytes, zeroed, MpiData, ReduceOp, Reducible};
use crate::error::MpiError;
use crate::locality::LocalityPolicy;
use crate::pt2pt::CTX_COLL;
use crate::runtime::{JobState, Mpi};
use crate::stats::CallClass;
use cmpi_cluster::SimTime;

/// Collective op ids baked into internal tags (high bits).
mod op {
    pub const BARRIER: u32 = 1;
    pub const BCAST: u32 = 2;
    pub const REDUCE: u32 = 3;
    pub const ALLREDUCE: u32 = 4;
    pub const GATHER: u32 = 5;
    pub const SCATTER: u32 = 6;
    pub const ALLGATHER: u32 = 7;
    pub const ALLTOALL: u32 = 8;
    pub const ALLTOALLV: u32 = 9;
    /// First op id of the two-level schedules (see [`super::phase_op`]).
    pub const TWO_LEVEL: u32 = 64;
}

/// Width of the round field in an internal collective tag.
const TAG_ROUND_BITS: u32 = 20;

/// Pack a collective op id and round counter into one internal tag.
///
/// The round occupies the low [`TAG_ROUND_BITS`] bits; it is masked (and
/// bound-checked in debug builds) so an overflowing round can never
/// silently corrupt the op id and cross-match a different collective.
pub(crate) fn tag(op_id: u32, round: u32) -> u32 {
    debug_assert!(
        op_id < (1 << (32 - TAG_ROUND_BITS)),
        "collective op id {op_id} does not fit the tag"
    );
    debug_assert!(
        round < (1 << TAG_ROUND_BITS),
        "collective round {round} overflows the tag's round field"
    );
    (op_id << TAG_ROUND_BITS) | (round & ((1 << TAG_ROUND_BITS) - 1))
}

/// Serialize `(key, payload)` pairs for tree bundles.
fn bundle<'a>(parts: impl IntoIterator<Item = &'a (usize, Bytes)>) -> Bytes {
    let mut out = BytesMut::new();
    for (key, data) in parts {
        out.put_u32_le(*key as u32);
        out.put_u32_le(data.len() as u32);
        out.extend_from_slice(data);
    }
    out.freeze()
}

/// Inverse of [`bundle`], length-checked: a truncated or odd-length
/// bundle surfaces as [`MpiError::CorruptBundle`] instead of a slice
/// panic, so a torn frame is diagnosable.
fn unbundle(data: &Bytes) -> Result<Vec<(usize, Bytes)>, MpiError> {
    let mut parts = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        if data.len() - off < 8 {
            return Err(MpiError::CorruptBundle {
                offset: off,
                len: data.len(),
            });
        }
        let rank = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap()) as usize;
        off += 8;
        if data.len() - off < len {
            return Err(MpiError::CorruptBundle {
                offset: off,
                len: data.len(),
            });
        }
        parts.push((rank, data.slice(off..off + len)));
        off += len;
    }
    Ok(parts)
}

/// Unwrap a world collective's outcome at the public boundary: the
/// world communicator has no failure handling, so an error is fatal.
pub(crate) fn must<R>(what: &str, r: Result<R, MpiError>) -> R {
    r.unwrap_or_else(|e| panic!("{what} failed: {e}"))
}

/// Place rank-keyed `(rank, block)` parts into a rank-ordered buffer of
/// `n` blocks of `block` elements.
fn assemble<T: MpiData>(parts: &[(usize, Bytes)], block: usize, n: usize) -> Vec<T> {
    let mut all = zeroed(block * n);
    for (r, b) in parts {
        from_bytes(b, &mut all[r * block..(r + 1) * block]);
    }
    all
}

/// Combines an incoming contribution into an accumulator: a reduction
/// operator bound to its element type.
pub(crate) type Combine<'a, T> = &'a dyn Fn(&mut [T], &[T]);

/// The locality partition the policy induces over a job's ranks. Built
/// once per job and shared by every rank through an `Arc`.
///
/// Leaders are *always* each group's smallest rank — one rule for every
/// phase of every collective, so two phases of one call can never
/// disagree about who the leader is.
pub(crate) struct Partition {
    /// The groups, each sorted, ordered by smallest member.
    pub(crate) groups: Vec<Vec<usize>>,
    /// Each group's leader, in group order (so a leader's position in
    /// this list is its group index).
    leaders: Vec<usize>,
    /// The group index of every rank.
    group_of: Vec<usize>,
}

impl Partition {
    /// The groups `state.policy` induces over all `n` ranks. A pure
    /// function of job-wide state, so every rank sees the same partition.
    pub(crate) fn of(state: &JobState, n: usize) -> Partition {
        let mut keyed: Vec<(String, usize)> = (0..n)
            .map(|r| {
                let loc = state.placement.loc(r);
                let cont = state.cluster.container(loc.container);
                let key = match state.policy {
                    LocalityPolicy::Hostname => format!("h:{}:{}", loc.host, cont.hostname),
                    _ => format!("d:{}:{}", loc.host, cont.ipc_ns.0),
                };
                (key, r)
            })
            .collect();
        keyed.sort();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut cur_key: Option<String> = None;
        for (k, r) in keyed {
            if cur_key.as_deref() == Some(k.as_str()) {
                groups.last_mut().expect("a key was seen").push(r);
            } else {
                cur_key = Some(k);
                groups.push(vec![r]);
            }
        }
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_by_key(|g| g[0]);
        let mut group_of = vec![0; n];
        for (i, g) in groups.iter().enumerate() {
            for &r in g {
                group_of[r] = i;
            }
        }
        Partition {
            leaders: groups.iter().map(|g| g[0]).collect(),
            groups,
            group_of,
        }
    }

    /// The group holding `rank`.
    fn group(&self, rank: usize) -> &[usize] {
        &self.groups[self.group_of[rank]]
    }
}

/// A flat list algorithm one step of a two-level phase runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Algo {
    /// Linear member → leader sends ([`Mpi::fanin_list`]).
    FanIn,
    /// Linear leader → member sends ([`Mpi::fanout_list`]).
    FanOut,
    /// Dissemination barrier ([`Mpi::barrier_list`]).
    Dissemination,
    /// Binomial broadcast ([`Mpi::bcast_list`]).
    Bcast,
    /// Binomial reduce ([`Mpi::reduce_list`]).
    Reduce,
    /// Recursive-doubling allreduce ([`Mpi::allreduce_list`]).
    Allreduce,
    /// Binomial gather ([`Mpi::gather_list`]).
    Gather,
    /// Pairwise exchange ([`Mpi::pairwise_list`]).
    Pairwise,
}

/// The phases of a two-level schedule, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// A non-leader root hands its payload to its group's leader.
    ShuttleIn,
    /// Every group exchanges among all its members.
    Pre,
    /// Group members → their leader.
    Up,
    /// Among the group leaders, rooted at the root's leader.
    Across,
    /// Leader → its group members.
    Down,
    /// The root's leader hands the result to a non-leader root.
    ShuttleOut,
}

impl Phase {
    const ALL: [Phase; 6] = [
        Phase::ShuttleIn,
        Phase::Pre,
        Phase::Up,
        Phase::Across,
        Phase::Down,
        Phase::ShuttleOut,
    ];
}

/// The two-level schedule of every [`CollKind`] (rows in
/// [`CollKind::index`] order): the flat algorithms each [`Phase`] runs,
/// in order. Pre, up and down run within every group (a one-rank group
/// sends nothing), across runs among the leaders, and a shuttle is a
/// broadcast over the pair (sender, receiver) — one message — that runs
/// only when the root is not its group's leader.
#[rustfmt::skip]
const SCHEDULE: [[&[Algo]; 6]; 7] = {
    use Algo::*;
    [
        // shuttle-in pre          up        across            down       shuttle-out
        [&[],         &[],         &[FanIn], &[Dissemination], &[FanOut], &[]],      // barrier
        [&[Bcast],    &[],         &[],      &[Bcast],         &[Bcast],  &[]],      // bcast
        [&[],         &[],         &[Reduce],&[Reduce],        &[],       &[Bcast]], // reduce
        [&[],         &[],         &[Reduce],&[Allreduce],     &[Bcast],  &[]],      // allreduce
        [&[],         &[],         &[Gather],&[Gather],        &[],       &[Bcast]], // gather
        [&[],         &[],         &[Gather],&[Gather, Bcast], &[Bcast],  &[]],      // allgather
        [&[],         &[Pairwise], &[FanIn], &[Pairwise],      &[FanOut], &[]],      // alltoall
    ]
};

/// Op id of step `step` of `phase` in `kind`'s two-level schedule — the
/// one place two-level tags come from. Every step owns two consecutive
/// ids (allreduce's non-power-of-two fallback uses the second).
fn phase_op(kind: CollKind, phase: Phase, step: usize) -> u32 {
    op::TWO_LEVEL + 24 * kind.index() as u32 + 4 * phase as u32 + 2 * step as u32
}

/// The value a two-level call carries from phase to phase.
enum Carry<'a, T> {
    /// Nothing moves (barrier).
    Empty,
    /// A reduction accumulator and its operator (reduce, allreduce).
    Acc(Vec<T>, Combine<'a, T>),
    /// An opaque payload, `None` until it reaches this rank (bcast, and
    /// whatever a broadcast step delivers).
    Payload(Option<Bytes>),
    /// `(rank, contribution)` parts gathered so far (gather, allgather).
    Parts(Vec<(usize, Bytes)>),
    /// Alltoall: the caller's slabs, the output filled so far, and the
    /// inter-group frames `(src * n + dst, slab)` staged at this rank.
    Exchange {
        data: &'a [T],
        out: Vec<T>,
        frames: Vec<(usize, Bytes)>,
    },
}

impl<T: MpiData> Carry<'_, T> {
    /// The carried value as one message payload.
    fn into_payload(self) -> Option<Bytes> {
        match self {
            Carry::Empty => None,
            Carry::Acc(acc, _) => Some(to_bytes(&acc)),
            Carry::Payload(p) => p,
            Carry::Parts(parts) => Some(bundle(&parts)),
            Carry::Exchange { frames, .. } => Some(bundle(&frames)),
        }
    }

    /// The reduction accumulator (reduce, allreduce).
    fn into_acc(self) -> Vec<T> {
        match self {
            Carry::Acc(acc, _) => acc,
            _ => unreachable!("reductions carry an accumulator"),
        }
    }

    /// The carried value as rank-keyed parts (gather, allgather).
    fn into_parts(self) -> Result<Vec<(usize, Bytes)>, MpiError> {
        match self {
            Carry::Parts(parts) => Ok(parts),
            other => unbundle(&other.into_payload().unwrap_or_default()),
        }
    }
}

impl Mpi {
    // ---- point-to-point building blocks (no time-class attribution) --------

    fn coll_send(&mut self, data: Bytes, dst: usize, t: u32, ctx: u32) -> Result<(), MpiError> {
        let id = self.isend_inner(data, dst, t, ctx);
        self.try_wait_send_inner(id)
    }

    fn coll_recv(&mut self, src: usize, t: u32, ctx: u32) -> Result<Bytes, MpiError> {
        let id = self.irecv_inner(Some(src), Some(t), ctx);
        Ok(self.try_wait_recv_inner(id)?.0)
    }

    /// Both halves run to an outcome so neither request leaks on error.
    fn coll_sendrecv(
        &mut self,
        data: Bytes,
        dst: usize,
        src: usize,
        t: u32,
        ctx: u32,
    ) -> Result<Bytes, MpiError> {
        let sid = self.isend_inner(data, dst, t, ctx);
        let rid = self.irecv_inner(Some(src), Some(t), ctx);
        let rout = self.try_wait_recv_inner(rid);
        let sout = self.try_wait_send_inner(sid);
        let out = rout?;
        sout?;
        Ok(out.0)
    }

    /// This rank's position in `list`.
    fn pos_in(&self, list: &[usize], what: &str) -> usize {
        list.iter()
            .position(|&r| r == self.rank)
            .unwrap_or_else(|| panic!("rank not in {what} group"))
    }

    // ---- flat algorithms over an explicit rank list ------------------------
    //
    // Positions in `list` act as virtual ranks. Each fails fast at entry
    // on a revoked context or convicted member, and in flight when a
    // partner dies mid-round.

    /// Linear fan-in to `list[0]`: every other member sends `mine` to the
    /// leader and moves on; the leader hands their payloads to `sink` in
    /// list order. On an oversubscribed host this beats a tree for
    /// synchronization-only traffic — members never wait on each other
    /// (no intermediate park/wake chain), only the leader blocks —
    /// mirroring the shared-memory flag barrier MVAPICH2 uses for its SMP
    /// phase.
    fn fanin_list(
        &mut self,
        mine: Bytes,
        list: &[usize],
        op_id: u32,
        ctx: u32,
        mut sink: impl FnMut(Bytes),
    ) -> Result<(), MpiError> {
        self.check_op_failure(ctx, None)?;
        if self.rank == list[0] {
            for &r in &list[1..] {
                sink(self.coll_recv(r, tag(op_id, 0), ctx)?);
            }
            Ok(())
        } else {
            self.coll_send(mine, list[0], tag(op_id, 0), ctx)
        }
    }

    /// Linear fan-out from `list[0]`: the leader sends `share(member)` to
    /// every other member in list order; members return what they
    /// received (the leader returns an empty payload).
    fn fanout_list(
        &mut self,
        list: &[usize],
        op_id: u32,
        ctx: u32,
        mut share: impl FnMut(usize) -> Bytes,
    ) -> Result<Bytes, MpiError> {
        self.check_op_failure(ctx, None)?;
        if self.rank == list[0] {
            for &r in &list[1..] {
                self.coll_send(share(r), r, tag(op_id, 0), ctx)?;
            }
            Ok(Bytes::new())
        } else {
            self.coll_recv(list[0], tag(op_id, 0), ctx)
        }
    }

    /// Dissemination barrier.
    pub(crate) fn barrier_list(
        &mut self,
        list: &[usize],
        op_id: u32,
        ctx: u32,
    ) -> Result<(), MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        if n <= 1 {
            return Ok(());
        }
        let me = self.pos_in(list, "barrier");
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let dst = list[(me + dist) % n];
            let src = list[(me + n - dist % n) % n];
            self.coll_sendrecv(Bytes::new(), dst, src, tag(op_id, k), ctx)?;
            dist <<= 1;
            k += 1;
        }
        Ok(())
    }

    /// Binomial broadcast from `list[root_pos]`. Every rank returns the
    /// payload.
    pub(crate) fn bcast_list(
        &mut self,
        data: Option<Bytes>,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Result<Bytes, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let relative = (self.pos_in(list, "bcast") + n - root_pos) % n;
        let mut payload = data.unwrap_or_default();
        // Receive phase.
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src_pos = (relative ^ mask) % n; // relative - mask
                let src = list[(src_pos + root_pos) % n];
                payload = self.coll_recv(src, tag(op_id, 0), ctx)?;
                break;
            }
            mask <<= 1;
        }
        // Forward phase.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = list[((relative + mask) + root_pos) % n];
                self.coll_send(payload.clone(), dst, tag(op_id, 0), ctx)?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Binomial reduce of the accumulators `acc` to `list[root_pos]`;
    /// only the root's return value is meaningful.
    pub(crate) fn reduce_list<T: MpiData>(
        &mut self,
        mut acc: Vec<T>,
        combine: Combine<T>,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Result<Vec<T>, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let relative = (self.pos_in(list, "reduce") + n - root_pos) % n;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let peer_rel = relative | mask;
                if peer_rel < n {
                    let peer = list[(peer_rel + root_pos) % n];
                    let bytes = self.coll_recv(peer, tag(op_id, 0), ctx)?;
                    let mut tmp = zeroed(acc.len());
                    from_bytes(&bytes, &mut tmp);
                    combine(&mut acc, &tmp);
                }
            } else {
                let peer = list[((relative ^ mask) + root_pos) % n];
                self.coll_send(to_bytes(&acc), peer, tag(op_id, 0), ctx)?;
                break;
            }
            mask <<= 1;
        }
        Ok(acc)
    }

    /// Recursive-doubling allreduce of the accumulators `acc` (falls back
    /// to reduce + bcast, the bcast on `op_id + 1`, when the group size
    /// is not a power of two).
    pub(crate) fn allreduce_list<T: MpiData>(
        &mut self,
        mut acc: Vec<T>,
        combine: Combine<T>,
        list: &[usize],
        op_id: u32,
        ctx: u32,
    ) -> Result<Vec<T>, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        if n == 1 {
            return Ok(acc);
        }
        if !n.is_power_of_two() {
            let mut red = self.reduce_list(acc, combine, list, 0, op_id, ctx)?;
            let root = self.rank == list[0];
            let bytes = self.bcast_list(root.then(|| to_bytes(&red)), list, 0, op_id + 1, ctx)?;
            if !root {
                from_bytes(&bytes, &mut red);
            }
            return Ok(red);
        }
        let me = self.pos_in(list, "allreduce");
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < n {
            let peer = list[me ^ mask];
            let bytes = self.coll_sendrecv(to_bytes(&acc), peer, peer, tag(op_id, round), ctx)?;
            let mut tmp = zeroed(acc.len());
            from_bytes(&bytes, &mut tmp);
            combine(&mut acc, &tmp);
            mask <<= 1;
            round += 1;
        }
        Ok(acc)
    }

    /// Binomial gather of per-rank payloads to `list[root_pos]`; only the
    /// root's return value (rank-ordered payloads) is meaningful.
    pub(crate) fn gather_list(
        &mut self,
        mine: Bytes,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        ctx: u32,
    ) -> Result<Vec<(usize, Bytes)>, MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let relative = (self.pos_in(list, "gather") + n - root_pos) % n;
        let mut parts: Vec<(usize, Bytes)> = vec![(self.rank, mine)];
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < n {
                    let src = list[(src_rel + root_pos) % n];
                    let b = self.coll_recv(src, tag(op_id, 0), ctx)?;
                    parts.extend(unbundle(&b)?);
                }
            } else {
                let dst = list[((relative ^ mask) + root_pos) % n];
                self.coll_send(bundle(&parts), dst, tag(op_id, 0), ctx)?;
                break;
            }
            mask <<= 1;
        }
        parts.sort_by_key(|&(r, _)| r);
        Ok(parts)
    }

    /// Pairwise exchange: in step `s` every member sends `outgoing(dst)`
    /// to the member `s` positions ahead and hands what the member `s`
    /// positions behind sent to `incoming(src, payload)`.
    fn pairwise_list(
        &mut self,
        list: &[usize],
        op_id: u32,
        ctx: u32,
        mut outgoing: impl FnMut(usize) -> Bytes,
        mut incoming: impl FnMut(usize, Bytes),
    ) -> Result<(), MpiError> {
        self.check_op_failure(ctx, None)?;
        let n = list.len();
        let me = self.pos_in(list, "pairwise");
        for step in 1..n {
            let dst = list[(me + step) % n];
            let src = list[(me + n - step) % n];
            let got = self.coll_sendrecv(outgoing(dst), dst, src, tag(op_id, step as u32), ctx)?;
            incoming(src, got);
        }
        Ok(())
    }

    /// Pairwise exchange of `block`-element slabs over `list`: the slab
    /// for `dst` comes from `data`, the one from `src` lands in `out`.
    fn exchange_slabs<T: MpiData>(
        &mut self,
        data: &[T],
        out: &mut [T],
        list: &[usize],
        op_id: u32,
    ) -> Result<(), MpiError> {
        let block = data.len() / self.n;
        self.pairwise_list(
            list,
            op_id,
            CTX_COLL,
            |dst| to_bytes(&data[dst * block..(dst + 1) * block]),
            |src, got| from_bytes(&got, &mut out[src * block..(src + 1) * block]),
        )
    }

    // ---- the two-level composer ---------------------------------------------

    /// Run `kind`'s two-level schedule ([`SCHEDULE`]) over the job's
    /// locality partition. `root` is the world root of a rooted kind (0
    /// otherwise); `v` carries the call's value from phase to phase.
    fn two_level<'a, T: MpiData>(
        &mut self,
        kind: CollKind,
        root: usize,
        mut v: Carry<'a, T>,
    ) -> Result<Carry<'a, T>, MpiError> {
        let part = Arc::clone(&self.coll_groups);
        let group = part.group(self.rank);
        let root_group = part.group_of[root];
        let root_leader = part.leaders[root_group];
        let shuttles = root != root_leader && (self.rank == root || self.rank == root_leader);
        let (shuttle_in, shuttle_out) = ([root, root_leader], [root_leader, root]);
        for (phase, algos) in Phase::ALL.into_iter().zip(SCHEDULE[kind.index()]) {
            let (list, root_pos, active): (&[usize], usize, bool) = match phase {
                Phase::ShuttleIn => (&shuttle_in, 0, shuttles),
                Phase::ShuttleOut => (&shuttle_out, 0, shuttles),
                Phase::Pre | Phase::Up | Phase::Down => (group, 0, true),
                Phase::Across => (&part.leaders, root_group, self.rank == group[0]),
            };
            if !active {
                continue;
            }
            for (step, &algo) in algos.iter().enumerate() {
                let op_id = phase_op(kind, phase, step);
                v = self.phase_step(algo, phase, list, root_pos, op_id, v)?;
            }
        }
        Ok(v)
    }

    /// One step of a two-level phase: run `algo` over `list` on the
    /// carried value.
    fn phase_step<'a, T: MpiData>(
        &mut self,
        algo: Algo,
        phase: Phase,
        list: &[usize],
        root_pos: usize,
        op_id: u32,
        v: Carry<'a, T>,
    ) -> Result<Carry<'a, T>, MpiError> {
        let ctx = CTX_COLL;
        let n = self.n;
        Ok(match (algo, v) {
            (Algo::Dissemination, v) => {
                self.barrier_list(list, op_id, ctx)?;
                v
            }
            (Algo::Bcast, Carry::Acc(mut acc, f)) => {
                let root = self.rank == list[root_pos];
                let seed = root.then(|| to_bytes(&acc));
                let bytes = self.bcast_list(seed, list, root_pos, op_id, ctx)?;
                if !root {
                    from_bytes(&bytes, &mut acc);
                }
                Carry::Acc(acc, f)
            }
            (Algo::Bcast, v) => {
                let seed = if self.rank == list[root_pos] {
                    v.into_payload()
                } else {
                    None
                };
                Carry::Payload(Some(self.bcast_list(seed, list, root_pos, op_id, ctx)?))
            }
            (Algo::Reduce, Carry::Acc(acc, f)) => {
                Carry::Acc(self.reduce_list(acc, f, list, root_pos, op_id, ctx)?, f)
            }
            (Algo::Allreduce, Carry::Acc(acc, f)) => {
                Carry::Acc(self.allreduce_list(acc, f, list, op_id, ctx)?, f)
            }
            (Algo::Gather, v) => {
                let mine = v.into_payload().unwrap_or_default();
                let parts = self.gather_list(mine, list, root_pos, op_id, ctx)?;
                if phase != Phase::Across {
                    Carry::Parts(parts)
                } else {
                    // Leaders contributed whole groups: flatten the
                    // nested bundles back to per-rank parts.
                    let mut flat = Vec::new();
                    for (_, group_bundle) in &parts {
                        flat.extend(unbundle(group_bundle)?);
                    }
                    flat.sort_by_key(|&(r, _)| r);
                    Carry::Parts(flat)
                }
            }
            (Algo::FanIn, Carry::Empty) => {
                self.fanin_list(Bytes::new(), list, op_id, ctx, drop)?;
                Carry::Empty
            }
            (Algo::FanOut, Carry::Empty) => {
                self.fanout_list(list, op_id, ctx, |_| Bytes::new())?;
                Carry::Empty
            }
            // Alltoall: slabs for the own group go direct; members hand
            // the rest to the leader keyed by `src * n + dst`, leaders
            // swap per-destination-group frames, and each leader hands
            // every member the frames addressed to it.
            (
                Algo::Pairwise,
                Carry::Exchange {
                    data,
                    mut out,
                    frames,
                },
            ) if phase == Phase::Pre => {
                self.exchange_slabs(data, &mut out, list, op_id)?;
                Carry::Exchange { data, out, frames }
            }
            (Algo::FanIn, Carry::Exchange { data, out, .. }) => {
                let block = data.len() / n;
                let part = Arc::clone(&self.coll_groups);
                let mine = part.group_of[self.rank];
                let mut frames: Vec<(usize, Bytes)> = (0..n)
                    .filter(|&d| part.group_of[d] != mine)
                    .map(|d| {
                        (
                            self.rank * n + d,
                            to_bytes(&data[d * block..(d + 1) * block]),
                        )
                    })
                    .collect();
                let leader = self.rank == list[0];
                let sent = if leader {
                    Bytes::new()
                } else {
                    bundle(&frames)
                };
                let mut got = Vec::new();
                self.fanin_list(sent, list, op_id, ctx, |b| got.push(b))?;
                for b in &got {
                    frames.extend(unbundle(b)?);
                }
                if !leader {
                    frames.clear();
                }
                Carry::Exchange { data, out, frames }
            }
            (Algo::Pairwise, Carry::Exchange { data, out, frames }) => {
                let part = Arc::clone(&self.coll_groups);
                let mut got = Vec::new();
                self.pairwise_list(
                    list,
                    op_id,
                    ctx,
                    |dst_leader| {
                        let g = part.group_of[dst_leader];
                        bundle(frames.iter().filter(|(key, _)| part.group_of[key % n] == g))
                    },
                    |_, b| got.push(b),
                )?;
                let mut incoming = Vec::new();
                for b in &got {
                    incoming.extend(unbundle(b)?);
                }
                Carry::Exchange {
                    data,
                    out,
                    frames: incoming,
                }
            }
            (Algo::FanOut, Carry::Exchange { data, out, frames }) => {
                let got = self.fanout_list(list, op_id, ctx, |member| {
                    bundle(frames.iter().filter(|(key, _)| key % n == member))
                })?;
                let frames = if self.rank == list[0] {
                    frames
                } else {
                    unbundle(&got)?
                };
                Carry::Exchange { data, out, frames }
            }
            (algo, _) => unreachable!("{algo:?} does not apply to this collective's value"),
        })
    }

    // ---- public collectives --------------------------------------------------

    /// Enter a selectable collective: charge the entry cost, then pick
    /// and record the algorithm for a `bytes`-sized call.
    fn coll_enter(&mut self, kind: CollKind, bytes: usize) -> (SimTime, CollAlgo) {
        let t0 = self.enter();
        let algo = self.coll.select(kind, bytes);
        self.record_coll_sel(kind, algo);
        (t0, algo)
    }

    /// Leave a selectable collective, labelled with its algorithm.
    fn coll_exit(&mut self, kind: CollKind, algo: CollAlgo, t0: SimTime) {
        self.exit_named(CallClass::Collective, t0, coll_trace_name(kind, algo));
    }

    /// Synchronize all ranks (`MPI_Barrier`).
    pub fn barrier(&mut self) {
        let (t0, algo) = self.coll_enter(CollKind::Barrier, 0);
        let r = if algo == CollAlgo::TwoLevel {
            self.two_level(CollKind::Barrier, 0, Carry::<u8>::Empty)
                .map(drop)
        } else {
            self.with_world_list(|mpi, list| mpi.barrier_list(list, op::BARRIER, CTX_COLL))
        };
        must("barrier", r);
        self.coll_exit(CollKind::Barrier, algo, t0);
    }

    /// Broadcast `buf` from `root` to every rank (`MPI_Bcast`).
    pub fn bcast<T: MpiData>(&mut self, buf: &mut [T], root: usize) {
        let (t0, algo) = self.coll_enter(CollKind::Bcast, std::mem::size_of_val(buf));
        let seed = (algo != CollAlgo::Large && self.rank == root).then(|| to_bytes(buf));
        let out = match algo {
            CollAlgo::TwoLevel => self
                .two_level(CollKind::Bcast, root, Carry::<T>::Payload(seed))
                .map(Carry::into_payload),
            CollAlgo::Large => {
                self.bcast_scatter_allgather_inner(buf, root);
                Ok(None)
            }
            CollAlgo::Flat => self
                .with_world_list(|mpi, list| mpi.bcast_list(seed, list, root, op::BCAST, CTX_COLL))
                .map(Some),
        };
        let out = must("bcast", out);
        if self.rank != root {
            if let Some(bytes) = out {
                from_bytes(&bytes, buf);
            }
        }
        self.coll_exit(CollKind::Bcast, algo, t0);
    }

    /// Reduce elementwise to `root` (`MPI_Reduce`). Returns `Some(result)`
    /// at the root, `None` elsewhere.
    pub fn reduce<T: Reducible>(
        &mut self,
        data: &[T],
        rop: ReduceOp,
        root: usize,
    ) -> Option<Vec<T>> {
        let (t0, algo) = self.coll_enter(CollKind::Reduce, std::mem::size_of_val(data));
        let combine = |acc: &mut [T], x: &[T]| reduce_into(rop, acc, x);
        let acc = if algo == CollAlgo::TwoLevel {
            self.two_level(CollKind::Reduce, root, Carry::Acc(data.to_vec(), &combine))
                .map(Carry::into_acc)
        } else {
            self.with_world_list(|mpi, list| {
                mpi.reduce_list(data.to_vec(), &combine, list, root, op::REDUCE, CTX_COLL)
            })
        };
        let acc = must("reduce", acc);
        self.coll_exit(CollKind::Reduce, algo, t0);
        (self.rank == root).then_some(acc)
    }

    /// Elementwise reduction visible on every rank (`MPI_Allreduce`).
    pub fn allreduce<T: Reducible>(&mut self, data: &[T], rop: ReduceOp) -> Vec<T> {
        let (t0, algo) = self.coll_enter(CollKind::Allreduce, std::mem::size_of_val(data));
        let combine = |acc: &mut [T], x: &[T]| reduce_into(rop, acc, x);
        let out = match algo {
            CollAlgo::TwoLevel => self
                .two_level(CollKind::Allreduce, 0, Carry::Acc(data.to_vec(), &combine))
                .map(Carry::into_acc),
            CollAlgo::Large => Ok(self.allreduce_rabenseifner_inner(data, rop)),
            CollAlgo::Flat => self.with_world_list(|mpi, list| {
                mpi.allreduce_list(data.to_vec(), &combine, list, op::ALLREDUCE, CTX_COLL)
            }),
        };
        let out = must("allreduce", out);
        self.coll_exit(CollKind::Allreduce, algo, t0);
        out
    }

    /// Gather equal-size contributions to `root` (`MPI_Gather`). Returns
    /// the rank-ordered concatenation at the root.
    pub fn gather<T: MpiData>(&mut self, data: &[T], root: usize) -> Option<Vec<T>> {
        let (t0, algo) = self.coll_enter(CollKind::Gather, std::mem::size_of_val(data));
        let mine = to_bytes(data);
        let parts = if algo == CollAlgo::TwoLevel {
            self.two_level(CollKind::Gather, root, Carry::<T>::Payload(Some(mine)))
                .and_then(|v| {
                    if self.rank == root {
                        v.into_parts()
                    } else {
                        Ok(Vec::new())
                    }
                })
        } else {
            self.with_world_list(|mpi, list| {
                mpi.gather_list(mine, list, root, op::GATHER, CTX_COLL)
            })
        };
        let parts = must("gather", parts);
        self.coll_exit(CollKind::Gather, algo, t0);
        (self.rank == root).then(|| assemble(&parts, data.len(), self.n))
    }

    /// Scatter equal-size blocks from `root` (`MPI_Scatter`). `data` is
    /// required at the root (length `n * block`), ignored elsewhere;
    /// returns this rank's block.
    pub fn scatter<T: MpiData>(&mut self, data: Option<&[T]>, block: usize, root: usize) -> Vec<T> {
        let t0 = self.enter();
        let n = self.n;
        let relative = (self.rank + n - root) % n;
        let t = tag(op::SCATTER, 0);
        // Bundle keyed by *relative* position.
        let mut mine: Option<Bytes> = None;
        let mut held: Vec<(usize, Bytes)> = Vec::new();
        if self.rank == root {
            let data = data.expect("scatter root must supply data");
            assert_eq!(
                data.len(),
                block * n,
                "scatter data must be n * block elements"
            );
            for rel in 0..n {
                let abs = (rel + root) % n;
                let b = to_bytes(&data[abs * block..(abs + 1) * block]);
                if rel == 0 {
                    mine = Some(b);
                } else {
                    held.push((rel, b));
                }
            }
        } else {
            // Receive my subtree's bundle from the parent.
            let mut mask = 1usize;
            while mask < n {
                if relative & mask != 0 {
                    let parent = ((relative ^ mask) + root) % n;
                    let b = must("scatter", self.coll_recv(parent, t, CTX_COLL));
                    for (rel, part) in must("scatter", unbundle(&b)) {
                        if rel == relative {
                            mine = Some(part);
                        } else {
                            held.push((rel, part));
                        }
                    }
                    break;
                }
                mask <<= 1;
            }
        }
        // Forward children's subtrees: child subtree rooted at
        // relative+mask covers [relative+mask, relative+2*mask).
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                break;
            }
            mask <<= 1;
        }
        // `mask` is now above my subtree span; walk down. The root's span
        // is the whole tree.
        let mut m_cur = if relative == 0 {
            n.next_power_of_two() >> 1
        } else {
            mask >> 1
        };
        while m_cur > 0 {
            if relative + m_cur < n {
                let lo = relative + m_cur;
                let hi = (relative + 2 * m_cur).min(n);
                let in_span = |rel: usize| rel >= lo && rel < hi;
                let parts = bundle(held.iter().filter(|(rel, _)| in_span(*rel)));
                held.retain(|(rel, _)| !in_span(*rel));
                let dst = (lo + root) % n;
                must("scatter", self.coll_send(parts, dst, t, CTX_COLL));
            }
            m_cur >>= 1;
        }
        let bytes = mine.expect("scatter block never arrived");
        let mut out = zeroed(block);
        from_bytes(&bytes, &mut out);
        self.exit(CallClass::Collective, t0);
        out
    }

    /// All-to-all gather of equal contributions (`MPI_Allgather`). Returns
    /// the rank-ordered concatenation.
    pub fn allgather<T: MpiData>(&mut self, data: &[T]) -> Vec<T> {
        let (t0, algo) = self.coll_enter(CollKind::Allgather, std::mem::size_of_val(data));
        let all = if algo == CollAlgo::TwoLevel {
            self.two_level(
                CollKind::Allgather,
                0,
                Carry::<T>::Payload(Some(to_bytes(data))),
            )
            .and_then(Carry::into_parts)
            .map(|parts| assemble(&parts, data.len(), self.n))
        } else {
            self.allgather_ring(data)
        };
        let all = must("allgather", all);
        self.coll_exit(CollKind::Allgather, algo, t0);
        all
    }

    /// Ring allgather over the world.
    fn allgather_ring<T: MpiData>(&mut self, data: &[T]) -> Result<Vec<T>, MpiError> {
        let n = self.n;
        let block = data.len();
        let mut all = zeroed(block * n);
        all[self.rank * block..(self.rank + 1) * block].copy_from_slice(data);
        let right = (self.rank + 1) % n;
        let left = (self.rank + n - 1) % n;
        for step in 0..n.saturating_sub(1) {
            let send_block = (self.rank + n - step) % n;
            let recv_block = (self.rank + n - step - 1) % n;
            let payload = to_bytes(&all[send_block * block..(send_block + 1) * block]);
            let t = tag(op::ALLGATHER, step as u32);
            let got = self.coll_sendrecv(payload, right, left, t, CTX_COLL)?;
            from_bytes(&got, &mut all[recv_block * block..(recv_block + 1) * block]);
        }
        Ok(all)
    }

    /// Personalized all-to-all exchange (`MPI_Alltoall`). `data` holds one
    /// `block`-element slab per destination; returns one slab per source.
    pub fn alltoall<T: MpiData>(&mut self, data: &[T], block: usize) -> Vec<T> {
        let (t0, algo) = self.coll_enter(CollKind::Alltoall, block * T::SIZE);
        let n = self.n;
        assert_eq!(
            data.len(),
            block * n,
            "alltoall data must be n * block elements"
        );
        let me = self.rank * block..(self.rank + 1) * block;
        let mut out = zeroed(block * n);
        out[me.clone()].copy_from_slice(&data[me]);
        let out = if algo == CollAlgo::TwoLevel {
            let v = Carry::Exchange {
                data,
                out,
                frames: Vec::new(),
            };
            self.two_level(CollKind::Alltoall, 0, v).map(|v| {
                let Carry::Exchange {
                    mut out, frames, ..
                } = v
                else {
                    unreachable!("alltoall carries an exchange")
                };
                for (key, slab) in frames.iter().filter(|(key, _)| key % n == self.rank) {
                    let s = key / n;
                    from_bytes(slab, &mut out[s * block..(s + 1) * block]);
                }
                out
            })
        } else {
            self.with_world_list(|mpi, list| mpi.exchange_slabs(data, &mut out, list, op::ALLTOALL))
                .map(|()| out)
        };
        let out = must("alltoall", out);
        self.coll_exit(CollKind::Alltoall, algo, t0);
        out
    }

    /// Variable-size personalized all-to-all (`MPI_Alltoallv`): one byte
    /// payload per destination; returns one payload per source.
    pub fn alltoallv_bytes(&mut self, blocks: Vec<Bytes>) -> Vec<Bytes> {
        let t0 = self.enter();
        let n = self.n;
        assert_eq!(blocks.len(), n, "alltoallv needs one block per rank");
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[self.rank] = blocks[self.rank].clone();
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for step in 1..n {
            let dst = (self.rank + step) % n;
            let src = (self.rank + n - step) % n;
            sends.push(self.isend_inner(blocks[dst].clone(), dst, tag(op::ALLTOALLV, 0), CTX_COLL));
            recvs.push((
                src,
                self.irecv_inner(Some(src), Some(tag(op::ALLTOALLV, 0)), CTX_COLL),
            ));
        }
        for (src, rid) in recvs {
            out[src] = self.wait_recv_inner(rid).0;
        }
        for sid in sends {
            self.wait_send_inner(sid);
        }
        self.exit(CallClass::Collective, t0);
        out
    }

    /// The locality groups the active policy induces (each group sorted,
    /// groups ordered by smallest member). All ranks compute the same
    /// partition.
    pub fn policy_groups(&self) -> Vec<Vec<usize>> {
        self.coll_groups.groups.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_packs_op_and_round() {
        assert_eq!(tag(op::BARRIER, 0), 1 << TAG_ROUND_BITS);
        // The maximal round fits without touching the op id.
        let max_round = (1 << TAG_ROUND_BITS) - 1;
        assert_eq!(tag(3, max_round) >> TAG_ROUND_BITS, 3);
        assert_eq!(tag(3, max_round) & max_round, max_round);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflows the tag")]
    fn tag_rejects_round_overflow() {
        let _ = tag(op::BARRIER, 1 << TAG_ROUND_BITS);
    }

    #[test]
    fn bundle_round_trips() {
        let parts = vec![
            (3usize, Bytes::from_static(b"abc")),
            (7usize, Bytes::new()),
            (0usize, Bytes::from_static(b"xy")),
        ];
        assert_eq!(unbundle(&bundle(&parts)).unwrap(), parts);
        assert_eq!(unbundle(&Bytes::new()).unwrap(), vec![]);
    }

    #[test]
    fn unbundle_rejects_torn_bundles() {
        let whole = bundle(&[(1usize, Bytes::from_static(b"payload"))]);
        // Truncated header: fewer than 8 framing bytes remain.
        let torn = whole.slice(0..5);
        assert!(matches!(
            unbundle(&torn),
            Err(MpiError::CorruptBundle { offset: 0, len: 5 })
        ));
        // Truncated payload: the frame promises more bytes than exist.
        let torn = whole.slice(0..whole.len() - 2);
        let err = unbundle(&torn).unwrap_err();
        assert!(matches!(err, MpiError::CorruptBundle { offset: 8, .. }));
        assert!(err.to_string().contains("overruns"));
        // Odd trailing garbage after a valid frame.
        let mut garbled = whole.to_vec();
        garbled.extend_from_slice(&[0xff; 3]);
        assert!(unbundle(&Bytes::from(garbled)).is_err());
    }
}
