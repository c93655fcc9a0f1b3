//! The call value: one description of a collective call, shared by every
//! public entry point, the harnesses, the conformance plane and the
//! traffic plane.
//!
//! A [`Call`] names a collective the way the paper's signatures do
//! (§4.3–4.6): which collective and which algorithm arm ([`CallKind`],
//! `Auto` allowed), the root, what it moves ([`Extent`]: one whole
//! vector, or a count table), whom it runs on and under which
//! [`SyncMode`]. Three methods do everything else:
//!
//! * [`Call::row`] resolves the call into the [`Row`] that names its
//!   schedule — the only place an `Auto` arm meets a selector, each kind
//!   by its paper-signature rule;
//! * [`Call::spec`] is the [`CollectiveSpec`] the conformance oracle
//!   holds the row's schedule to;
//! * [`Call::issue`] runs it on a PE over its [`Bufs`].
//!
//! The public entry points build a call on the stack, borrowing the
//! caller's tables, and issue it; harnesses keep owned `Call<'static>`
//! values. The combiner is not part of the value: [`Call::issue`] takes it
//! as a generic argument, so a reduction's fold stays monomorphised.

use std::borrow::Cow;
use std::sync::Arc;

use crate::collectives::broadcast::broadcast_core;
use crate::collectives::extended::{all_to_all_core, allreduce_core, AllReduceAlgo};
use crate::collectives::gather::gather_core;
use crate::collectives::plan::{self, Plan};
use crate::collectives::policy::{self, AlgorithmPolicy, SyncMode};
use crate::collectives::reduce::reduce_core;
use crate::collectives::scatter::{adjusted_displacements, scatter_core};
use crate::collectives::schedule::{Payload, Row, Shape};
use crate::collectives::vcoll::{allgather_core, validate_v_shape, AllGatherVAlgo, VCountError};
use crate::collectives::verify::CollectiveSpec;
use crate::fabric::CollectiveKind::{self as C};
use crate::fabric::{CollectiveKind, Pe, SymmAlloc};
use crate::types::XbrType;

/// A collective with the algorithm arm it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// Broadcast from the root (Algorithm 1's family).
    Broadcast(AlgorithmPolicy),
    /// Reduction to the root (Algorithm 2's family).
    Reduce(AlgorithmPolicy),
    /// Scatter of a count table from the root (Algorithm 3's family).
    Scatter(AlgorithmPolicy),
    /// Gather of a count table to the root (Algorithm 4's family).
    Gather(AlgorithmPolicy),
    /// Reduction whose result lands on every rank.
    AllReduce(AllReduceAlgo),
    /// Every rank receives every rank's block.
    AllGather(AllGatherVAlgo),
    /// Personalized all-to-all.
    AllToAll,
    /// The two-tier binomial tree of
    /// [`hierarchical`](crate::collectives::hierarchical): `family` is
    /// `Broadcast` or `Reduce`.
    Hier {
        /// Broadcast, or its transpose.
        family: CollectiveKind,
        /// Ranks per node.
        pes_per_node: usize,
    },
}

/// What a call moves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Extent<'a> {
    /// `nelems` elements at `stride`: the vector a rooted or reducing
    /// call moves, or the block every rank contributes to an all-gather
    /// or sends every peer in an all-to-all.
    Whole {
        /// Elements.
        nelems: usize,
        /// Element stride.
        stride: usize,
    },
    /// Rank `r` moves `counts[r]` elements; for scatter and gather its
    /// segment sits at `displs[r]` of the root's private buffer.
    Table {
        /// One count per rank.
        counts: Cow<'a, [usize]>,
        /// One displacement per rank (scatter and gather).
        displs: Option<Cow<'a, [usize]>>,
    },
}

/// One collective call. `root` is a position in the member list, and 0
/// for the rootless kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call<'a> {
    /// The collective and its algorithm arm.
    pub kind: CallKind,
    /// Root rank.
    pub root: usize,
    /// What it moves.
    pub extent: Extent<'a>,
    /// The PEs taking part, in rank order; `None` for the whole world.
    pub members: Option<Cow<'a, [usize]>>,
    /// Executor discipline.
    pub sync: SyncMode,
}

/// One end of a call on this PE: a symmetric allocation, or private
/// memory `L`.
#[derive(Debug)]
pub enum Buf<'b, T: XbrType, L> {
    /// Symmetric heap.
    Heap(&'b SymmAlloc<T>),
    /// Private memory.
    Local(L),
}

/// The buffers a call runs over on this PE. Broadcast writes a symmetric
/// `dest` from a private `src`; the reducing kinds fold a symmetric `src`
/// into a private `dest`; the rest move private memory to private memory.
#[derive(Debug)]
pub struct Bufs<'b, T: XbrType> {
    /// Where the result lands.
    pub dest: Buf<'b, T, &'b mut [T]>,
    /// What this PE contributes.
    pub src: Buf<'b, T, &'b [T]>,
}

impl<'b, T: XbrType> Bufs<'b, T> {
    /// The buffers `dest` and `src`, each symmetric or private.
    pub fn new(dest: Buf<'b, T, &'b mut [T]>, src: Buf<'b, T, &'b [T]>) -> Self {
        Bufs { dest, src }
    }

    /// Private `dest` and `src`.
    pub fn local(dest: &'b mut [T], src: &'b [T]) -> Self {
        Bufs::new(Buf::Local(dest), Buf::Local(src))
    }
}

/// The combiner a call that folds nothing is issued with; its fold steps
/// never run.
pub fn no_fold<T>(_: T, incoming: T) -> T {
    incoming
}

impl Call<'static> {
    /// A world call of `kind` moving one whole vector.
    pub fn whole(
        kind: CallKind,
        root: usize,
        nelems: usize,
        stride: usize,
        sync: SyncMode,
    ) -> Self {
        let extent = Extent::Whole { nelems, stride };
        Call {
            kind,
            root,
            extent,
            members: None,
            sync,
        }
    }
}

impl<'a> Call<'a> {
    /// A world call of `kind` over a borrowed count table.
    pub fn table(
        kind: CallKind,
        root: usize,
        counts: &'a [usize],
        displs: Option<&'a [usize]>,
        sync: SyncMode,
    ) -> Self {
        let (counts, displs) = (Cow::Borrowed(counts), displs.map(Cow::Borrowed));
        Call {
            kind,
            root,
            extent: Extent::Table { counts, displs },
            members: None,
            sync,
        }
    }

    /// The same call on `members` (a team, a tenant), borrowing its
    /// tables.
    pub fn on<'b>(&'b self, members: &'b [usize]) -> Call<'b> {
        let extent = match &self.extent {
            &Extent::Whole { nelems, stride } => Extent::Whole { nelems, stride },
            Extent::Table { counts, displs } => Extent::Table {
                counts: Cow::Borrowed(counts),
                displs: displs.as_deref().map(Cow::Borrowed),
            },
        };
        Call {
            kind: self.kind,
            root: self.root,
            extent,
            members: Some(Cow::Borrowed(members)),
            sync: self.sync,
        }
    }

    /// The kind the telemetry records the call under.
    pub fn family(&self) -> CollectiveKind {
        match self.kind {
            CallKind::Broadcast(_) => CollectiveKind::Broadcast,
            CallKind::Reduce(_) => CollectiveKind::Reduce,
            CallKind::Scatter(_) => CollectiveKind::Scatter,
            CallKind::Gather(_) => CollectiveKind::Gather,
            CallKind::AllReduce(_) => CollectiveKind::AllReduce,
            CallKind::AllGather(_) => CollectiveKind::AllGather,
            CallKind::AllToAll => CollectiveKind::AllToAll,
            CallKind::Hier { family, .. } => family,
        }
    }

    /// Resolve the call on a `world`-PE fabric at `elem_bytes`-sized
    /// elements and lend its [`Row`] to `f`. The only place an `Auto` arm
    /// meets a selector, each kind by its paper-signature rule: the rooted
    /// kinds by [`AlgorithmPolicy::select`] on their payload, broadcast
    /// jointly with its resolved sync mode
    /// ([`policy::auto_select_broadcast_sync`]), all-gather on per-rank
    /// bytes ([`policy::auto_select_all_gather`]; a table's largest
    /// block), all-reduce by [`AllReduceAlgo::resolve`]. A scatter's or
    /// gather's adjusted displacements, and an all-gather's constant
    /// count table, live for the duration of `f`.
    ///
    /// # Panics
    /// Panics if the kind does not take the call's extent.
    pub fn row<R>(&self, world: usize, elem_bytes: usize, f: impl FnOnce(&Row<'_>) -> R) -> R {
        let members = self.members.as_deref();
        let n = members.map_or(world, <[usize]>::len);
        let (family, root) = (self.family(), self.root);
        let lent: Vec<usize>;
        let shape = match (self.kind, &self.extent) {
            (CallKind::Broadcast(p) | CallKind::Reduce(p), &Extent::Whole { nelems, stride }) => {
                let nbytes = nelems * elem_bytes;
                let algo = match (self.kind, p) {
                    (CallKind::Broadcast(_), AlgorithmPolicy::Auto) => {
                        let resolved = self.sync.resolve(n, nbytes);
                        policy::auto_select_broadcast_sync(n, nbytes, resolved)
                    }
                    _ => p.select(family, n, nbytes),
                };
                let payload = Payload::Whole { nelems, stride };
                Shape::Rooted {
                    family,
                    algo,
                    root,
                    payload,
                }
            }
            (CallKind::Scatter(p) | CallKind::Gather(p), Extent::Table { counts, .. }) => {
                let nbytes = counts.iter().sum::<usize>() * elem_bytes;
                lent = adjusted_displacements(counts, root, n);
                Shape::Rooted {
                    family,
                    algo: p.select(family, n, nbytes),
                    root,
                    payload: Payload::Ranges(&lent),
                }
            }
            (CallKind::AllGather(algo), extent) => {
                let counts = match extent {
                    &Extent::Whole { nelems, .. } => {
                        lent = vec![nelems; n];
                        &lent[..]
                    }
                    Extent::Table { counts, .. } => &counts[..],
                };
                let algo = match algo {
                    AllGatherVAlgo::Auto => {
                        let block = counts.iter().copied().max().unwrap_or(0);
                        policy::auto_select_all_gather(n, block * elem_bytes)
                    }
                    concrete => concrete,
                };
                Shape::AllGather { algo, counts }
            }
            (CallKind::AllReduce(algo), &Extent::Whole { nelems, .. }) => Shape::AllReduce {
                algo: algo.resolve(n, nelems * elem_bytes),
                nelems,
            },
            (CallKind::AllToAll, &Extent::Whole { nelems, .. }) => {
                Shape::AllToAll { per_pe: nelems }
            }
            (CallKind::Hier { pes_per_node, .. }, &Extent::Whole { nelems, .. }) => Shape::Hier {
                family,
                pes_per_node,
                root,
                nelems,
            },
            (kind, extent) => panic!("{kind:?} does not take {extent:?}"),
        };
        f(&Row {
            shape,
            members,
            world,
        })
    }

    /// The cached plan of the call's row — the nonblocking and persistent
    /// routes' plan, shared with the blocking bodies.
    pub(crate) fn plan(&self, pe: &Pe, elem_bytes: usize) -> Arc<Plan> {
        let (kind, sync) = (self.family(), self.sync);
        self.row(pe.n_pes(), elem_bytes, |row| {
            plan::plan_for(pe, row, kind, sync, elem_bytes)
        })
    }

    /// The final-buffer contract the conformance oracle holds the call's
    /// schedule to. A reduce is checked as the tree unless its arm is
    /// `Linear`, which folds into the root's private accumulator.
    ///
    /// # Panics
    /// Panics if the kind does not take the call's extent.
    pub fn spec(&self) -> CollectiveSpec {
        use CollectiveSpec as S;
        let root = self.root;
        let (counts, nelems, stride) = match &self.extent {
            &Extent::Whole { nelems, stride } => (&[][..], nelems, stride),
            Extent::Table { counts, .. } => (&counts[..], 0, 1),
        };
        let adj_disp = adjusted_displacements(counts, root, counts.len());
        let members = self.members.as_deref().map(<[usize]>::to_vec);
        match (self.family(), self.kind, members) {
            (C::Broadcast, _, Some(members)) => S::TeamBroadcast {
                root_global: members[root],
                members,
                nelems,
            },
            (C::Reduce, _, Some(members)) => S::TeamReduce { members, nelems },
            (C::Broadcast, ..) => S::Broadcast {
                root,
                nelems,
                stride,
            },
            (C::Reduce, CallKind::Reduce(AlgorithmPolicy::Linear), _) => S::ReduceLinear {
                root,
                nelems,
                stride,
            },
            (C::Reduce, ..) => S::ReduceTree {
                root,
                nelems,
                stride,
            },
            (C::Scatter, ..) => S::Scatter { root, adj_disp },
            (C::Gather, ..) => S::Gather { root, adj_disp },
            (C::AllGather, ..) if counts.is_empty() => S::AllGather { per_pe: nelems },
            (C::AllGather, ..) => S::AllGatherV {
                counts: counts.to_vec(),
            },
            (C::AllReduce, ..) => S::AllReduce { nelems },
            (C::AllToAll, ..) => S::AllToAll { per_pe: nelems },
        }
    }

    /// Run the call on this PE; every PE of the fabric must issue the same
    /// call. A count table of the wrong length or a root outside the ranks
    /// is rejected with a [`VCountError`] before any allocation, barrier
    /// or signal-slot activity, and a zero-total table is inert (telemetry
    /// only). `f` combines elements for the reducing kinds; the others
    /// take [`no_fold`].
    ///
    /// # Panics
    /// Panics if `bufs` are not the kind's (see [`Bufs`]), a buffer is too
    /// small, or the kind does not take the call's extent.
    pub fn issue<T: XbrType>(
        &self,
        pe: &Pe,
        bufs: Bufs<'_, T>,
        f: impl Fn(T, T) -> T + Copy,
    ) -> Result<(), VCountError> {
        let (world, es, sync) = (pe.n_pes(), std::mem::size_of::<T>(), self.sync);
        if let Extent::Table { counts, displs } = &self.extent {
            let n = self.members.as_deref().map_or(world, <[usize]>::len);
            validate_v_shape(n, self.root, counts, displs.as_deref())?;
            if counts.iter().sum::<usize>() == 0 {
                plan::note_inert(pe, self.family());
                return Ok(());
            }
        }
        self.row(world, es, |row| {
            match (self.family(), bufs.dest, bufs.src) {
                (C::Broadcast, Buf::Heap(dest), Buf::Local(src)) => {
                    broadcast_core(pe, dest, src, row, sync)
                }
                (C::Reduce, Buf::Local(dest), Buf::Heap(src)) => {
                    reduce_core(pe, dest, src, row, f, sync)
                }
                (C::Scatter, Buf::Local(dest), Buf::Local(src)) => {
                    let (counts, displs) = self.rooted_table();
                    scatter_core(pe, dest, src, counts, displs, row, sync)
                }
                (C::Gather, Buf::Local(dest), Buf::Local(src)) => {
                    let (counts, displs) = self.rooted_table();
                    gather_core(pe, dest, src, counts, displs, row, sync)
                }
                (C::AllGather, Buf::Local(dest), Buf::Local(src)) => {
                    allgather_core(pe, dest, src, row, sync)
                }
                (C::AllReduce, Buf::Local(dest), Buf::Heap(src)) => {
                    allreduce_core(pe, dest, src, row, f, sync)
                }
                (C::AllToAll, Buf::Local(dest), Buf::Local(src)) => {
                    all_to_all_core(pe, dest, src, row, sync)
                }
                (kind, ..) => panic!("{kind:?} does not run over these buffers"),
            }
        });
        Ok(())
    }

    /// A scatter's or gather's count and displacement tables.
    fn rooted_table(&self) -> (&[usize], &[usize]) {
        let Extent::Table { counts, displs } = &self.extent else {
            panic!("{:?} needs a count table", self.kind);
        };
        (
            counts,
            displs
                .as_deref()
                .expect("scatter and gather need displacements"),
        )
    }
}
