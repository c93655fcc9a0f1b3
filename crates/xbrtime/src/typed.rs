//! The explicit per-type API of paper Table 1.
//!
//! The C library exposes `xbrtime_TYPENAME_put`, `xbrtime_TYPENAME_get`,
//! `xbrtime_TYPENAME_broadcast`, `xbrtime_TYPENAME_reduce_OP`,
//! `xbrtime_TYPENAME_scatter` and `xbrtime_TYPENAME_gather` for each of the
//! 24 TYPENAMEs — "explicit calls for each data type supported … more
//! intuitive for developers who might not possess the necessary background
//! knowledge regarding data type sizes" (paper §4.7). Rust's module system
//! replaces name mangling: `xbrtime_int_put(…)` becomes
//! [`typed::int::put`](int::put), with identical argument order and
//! semantics. One module exists per Table 1 TYPENAME, including the
//! aliases (`long` and `longlong` both map to `i64`, exactly as the C
//! types collapse on RV64).
//!
//! Bitwise reductions (`reduce_and`/`reduce_or`/`reduce_xor`) exist only in
//! the non-floating-point modules, enforcing the paper's §4.4 rule at
//! compile time.

use crate::collectives;
use crate::collectives::{AlgorithmPolicy, AllReduceAlgo, CollHandle, SyncMode};
use crate::fabric::{NbHandle, Pe, SymmAlloc, SymmRef};
use crate::types::ReduceOp;

/// Operations common to every Table 1 type module.
macro_rules! typed_common {
    ($t:ty) => {
        /// The Rust element type backing this TYPENAME.
        pub type Elem = $t;

        /// `xbrtime_TYPENAME_put(dest, src, nelems, stride, pe)`.
        pub fn put(
            pe: &Pe,
            dest: SymmRef<$t>,
            src: &[$t],
            nelems: usize,
            stride: usize,
            target: usize,
        ) {
            pe.put(dest, src, nelems, stride, target);
        }

        /// `xbrtime_TYPENAME_get(dest, src, nelems, stride, pe)`.
        pub fn get(
            pe: &Pe,
            dest: &mut [$t],
            src: SymmRef<$t>,
            nelems: usize,
            stride: usize,
            target: usize,
        ) {
            pe.get(dest, src, nelems, stride, target);
        }

        /// Non-blocking put (paper §3.3: "non-blocking forms of both get and
        /// put are also included in the library").
        pub fn put_nb(
            pe: &Pe,
            dest: SymmRef<$t>,
            src: &[$t],
            nelems: usize,
            stride: usize,
            target: usize,
        ) -> NbHandle {
            pe.put_nb(dest, src, nelems, stride, target)
        }

        /// Non-blocking get.
        pub fn get_nb(
            pe: &Pe,
            dest: &mut [$t],
            src: SymmRef<$t>,
            nelems: usize,
            stride: usize,
            target: usize,
        ) -> NbHandle {
            pe.get_nb(dest, src, nelems, stride, target)
        }

        /// `xbrtime_TYPENAME_broadcast(dest, src, nelems, stride, root)`.
        pub fn broadcast(
            pe: &Pe,
            dest: &SymmAlloc<$t>,
            src: &[$t],
            nelems: usize,
            stride: usize,
            root: usize,
        ) {
            collectives::broadcast(pe, dest, src, nelems, stride, root);
        }

        /// Nonblocking broadcast: issue now, overlap with local work,
        /// complete with [`CollHandle::wait`]
        /// (`xbrtime_TYPENAME_ibroadcast`).
        pub fn ibroadcast<'a>(
            pe: &'a Pe,
            dest: &SymmAlloc<$t>,
            src: &[$t],
            nelems: usize,
            root: usize,
        ) -> CollHandle<'a, $t> {
            collectives::ixbroadcast(pe, dest, src, nelems, root, SyncMode::Auto)
        }

        /// Nonblocking sum-reduction toward `root`; complete with
        /// [`CollHandle::wait_into`] (`xbrtime_TYPENAME_ireduce_sum`).
        pub fn ireduce_sum<'a>(
            pe: &'a Pe,
            src: &SymmAlloc<$t>,
            nelems: usize,
            root: usize,
        ) -> CollHandle<'a, $t> {
            collectives::ixreduce(pe, src, nelems, root, |a: $t, b: $t| a + b, SyncMode::Auto)
        }

        /// Nonblocking sum-allreduce over one fused schedule; complete
        /// with [`CollHandle::wait_into`]
        /// (`xbrtime_TYPENAME_iallreduce_sum`).
        pub fn iallreduce_sum<'a>(
            pe: &'a Pe,
            src: &SymmAlloc<$t>,
            nelems: usize,
        ) -> CollHandle<'a, $t> {
            collectives::ixallreduce(
                pe,
                src,
                nelems,
                |a: $t, b: $t| a + b,
                AllReduceAlgo::Auto,
                SyncMode::Auto,
            )
        }

        /// `xbrtime_TYPENAME_scatter(dest, src, pe_msgs, pe_disp, nelems, root)`.
        pub fn scatter(
            pe: &Pe,
            dest: &mut [$t],
            src: &[$t],
            pe_msgs: &[usize],
            pe_disp: &[usize],
            nelems: usize,
            root: usize,
        ) {
            collectives::scatter(pe, dest, src, pe_msgs, pe_disp, nelems, root);
        }

        /// `xbrtime_TYPENAME_gather(dest, src, pe_msgs, pe_disp, nelems, root)`.
        pub fn gather(
            pe: &Pe,
            dest: &mut [$t],
            src: &[$t],
            pe_msgs: &[usize],
            pe_disp: &[usize],
            nelems: usize,
            root: usize,
        ) {
            collectives::gather(pe, dest, src, pe_msgs, pe_disp, nelems, root);
        }

        /// `xbrtime_TYPENAME_scatterv(dest, src, counts, displs, root)` —
        /// irregular scatter, total inferred from `counts`.
        pub fn scatterv(
            pe: &Pe,
            dest: &mut [$t],
            src: &[$t],
            counts: &[usize],
            displs: &[usize],
            root: usize,
        ) {
            collectives::vcoll::scatterv(pe, dest, src, counts, displs, root);
        }

        /// `xbrtime_TYPENAME_gatherv(dest, src, counts, displs, root)` —
        /// irregular gather, total inferred from `counts`.
        pub fn gatherv(
            pe: &Pe,
            dest: &mut [$t],
            src: &[$t],
            counts: &[usize],
            displs: &[usize],
            root: usize,
        ) {
            collectives::vcoll::gatherv(pe, dest, src, counts, displs, root);
        }

        /// `xbrtime_TYPENAME_allgatherv(dest, src, counts)` — every PE
        /// receives the rank-ordered concatenation of per-PE blocks.
        pub fn allgatherv(pe: &Pe, dest: &mut [$t], src: &[$t], counts: &[usize]) {
            collectives::vcoll::allgatherv(pe, dest, src, counts);
        }

        /// `xbrtime_TYPENAME_reduce_sum(dest, src, nelems, stride, root)`.
        pub fn reduce_sum(
            pe: &Pe,
            dest: &mut [$t],
            src: &SymmAlloc<$t>,
            nelems: usize,
            stride: usize,
            root: usize,
        ) {
            collectives::reduce(pe, dest, src, nelems, stride, root, ReduceOp::Sum);
        }

        /// `xbrtime_TYPENAME_reduce_prod`.
        pub fn reduce_prod(
            pe: &Pe,
            dest: &mut [$t],
            src: &SymmAlloc<$t>,
            nelems: usize,
            stride: usize,
            root: usize,
        ) {
            collectives::reduce(pe, dest, src, nelems, stride, root, ReduceOp::Prod);
        }

        /// `xbrtime_TYPENAME_reduce_min`.
        pub fn reduce_min(
            pe: &Pe,
            dest: &mut [$t],
            src: &SymmAlloc<$t>,
            nelems: usize,
            stride: usize,
            root: usize,
        ) {
            collectives::reduce(pe, dest, src, nelems, stride, root, ReduceOp::Min);
        }

        /// `xbrtime_TYPENAME_reduce_max`.
        pub fn reduce_max(
            pe: &Pe,
            dest: &mut [$t],
            src: &SymmAlloc<$t>,
            nelems: usize,
            stride: usize,
            root: usize,
        ) {
            collectives::reduce(pe, dest, src, nelems, stride, root, ReduceOp::Max);
        }

        /// [`broadcast`] under an explicit [`AlgorithmPolicy`] and executor
        /// [`SyncMode`].
        #[allow(clippy::too_many_arguments)]
        pub fn broadcast_policy_sync(
            pe: &Pe,
            dest: &SymmAlloc<$t>,
            src: &[$t],
            nelems: usize,
            stride: usize,
            root: usize,
            policy: AlgorithmPolicy,
            sync: SyncMode,
        ) {
            collectives::broadcast_policy_sync(pe, dest, src, nelems, stride, root, policy, sync);
        }

        /// Reduce with any named operator under an explicit
        /// [`AlgorithmPolicy`] and executor [`SyncMode`].
        #[allow(clippy::too_many_arguments)]
        pub fn reduce_policy_sync(
            pe: &Pe,
            dest: &mut [$t],
            src: &SymmAlloc<$t>,
            nelems: usize,
            stride: usize,
            root: usize,
            op: ReduceOp,
            policy: AlgorithmPolicy,
            sync: SyncMode,
        ) {
            collectives::reduce_policy_sync(pe, dest, src, nelems, stride, root, op, policy, sync);
        }

        /// [`scatter`] under an explicit [`AlgorithmPolicy`] and executor
        /// [`SyncMode`].
        #[allow(clippy::too_many_arguments)]
        pub fn scatter_policy_sync(
            pe: &Pe,
            dest: &mut [$t],
            src: &[$t],
            pe_msgs: &[usize],
            pe_disp: &[usize],
            nelems: usize,
            root: usize,
            policy: AlgorithmPolicy,
            sync: SyncMode,
        ) {
            collectives::scatter_policy_sync(
                pe, dest, src, pe_msgs, pe_disp, nelems, root, policy, sync,
            );
        }

        /// [`gather`] under an explicit [`AlgorithmPolicy`] and executor
        /// [`SyncMode`].
        #[allow(clippy::too_many_arguments)]
        pub fn gather_policy_sync(
            pe: &Pe,
            dest: &mut [$t],
            src: &[$t],
            pe_msgs: &[usize],
            pe_disp: &[usize],
            nelems: usize,
            root: usize,
            policy: AlgorithmPolicy,
            sync: SyncMode,
        ) {
            collectives::gather_policy_sync(
                pe, dest, src, pe_msgs, pe_disp, nelems, root, policy, sync,
            );
        }
    };
}

macro_rules! typed_bitwise {
    ($t:ty) => {
        /// `xbrtime_TYPENAME_reduce_and` (non-floating-point only, §4.4).
        pub fn reduce_and(
            pe: &Pe,
            dest: &mut [$t],
            src: &SymmAlloc<$t>,
            nelems: usize,
            stride: usize,
            root: usize,
        ) {
            collectives::reduce_bitwise(pe, dest, src, nelems, stride, root, ReduceOp::And);
        }

        /// `xbrtime_TYPENAME_reduce_or`.
        pub fn reduce_or(
            pe: &Pe,
            dest: &mut [$t],
            src: &SymmAlloc<$t>,
            nelems: usize,
            stride: usize,
            root: usize,
        ) {
            collectives::reduce_bitwise(pe, dest, src, nelems, stride, root, ReduceOp::Or);
        }

        /// `xbrtime_TYPENAME_reduce_xor`.
        pub fn reduce_xor(
            pe: &Pe,
            dest: &mut [$t],
            src: &SymmAlloc<$t>,
            nelems: usize,
            stride: usize,
            root: usize,
        ) {
            collectives::reduce_bitwise(pe, dest, src, nelems, stride, root, ReduceOp::Xor);
        }
    };
}

macro_rules! typed_module_int {
    ($(#[$doc:meta])* $name:ident, $t:ty) => {
        $(#[$doc])*
        pub mod $name {
            use super::*;
            typed_common!($t);
            typed_bitwise!($t);
        }
    };
}

macro_rules! typed_module_float {
    ($(#[$doc:meta])* $name:ident, $t:ty) => {
        $(#[$doc])*
        pub mod $name {
            use super::*;
            typed_common!($t);
        }
    };
}

typed_module_float!(
    /// `float` → `f32`.
    float, f32
);
typed_module_float!(
    /// `double` → `f64`.
    double, f64
);
typed_module_float!(
    /// `longdouble` → `f64` (Rust has no extended-precision float; see DESIGN.md).
    longdouble, f64
);
typed_module_int!(
    /// `char` → `i8` (C `char` is signed on RISC-V).
    char, i8
);
typed_module_int!(
    /// `uchar` → `u8`.
    uchar, u8
);
typed_module_int!(
    /// `schar` → `i8`.
    schar, i8
);
typed_module_int!(
    /// `ushort` → `u16`.
    ushort, u16
);
typed_module_int!(
    /// `short` → `i16`.
    short, i16
);
typed_module_int!(
    /// `uint` → `u32`.
    uint, u32
);
typed_module_int!(
    /// `int` → `i32`.
    int, i32
);
typed_module_int!(
    /// `ulong` → `u64` (RV64 LP64: `unsigned long` is 64-bit).
    ulong, u64
);
typed_module_int!(
    /// `long` → `i64`.
    long, i64
);
typed_module_int!(
    /// `ulonglong` → `u64`.
    ulonglong, u64
);
typed_module_int!(
    /// `longlong` → `i64`.
    longlong, i64
);
typed_module_int!(
    /// `uint8` → `u8`.
    uint8, u8
);
typed_module_int!(
    /// `int8` → `i8`.
    int8, i8
);
typed_module_int!(
    /// `uint16` → `u16`.
    uint16, u16
);
typed_module_int!(
    /// `int16` → `i16`.
    int16, i16
);
typed_module_int!(
    /// `uint32` → `u32`.
    uint32, u32
);
typed_module_int!(
    /// `int32` → `i32`.
    int32, i32
);
typed_module_int!(
    /// `uint64` → `u64`.
    uint64, u64
);
typed_module_int!(
    /// `int64` → `i64`.
    int64, i64
);
typed_module_int!(
    /// `size` → `usize`.
    size, usize
);
typed_module_int!(
    /// `ptrdiff` → `isize`.
    ptrdiff, isize
);

#[cfg(test)]
mod tests {
    use crate::fabric::{Fabric, FabricConfig};

    #[test]
    fn typed_put_get_matches_generic() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<i32>(4);
            pe.barrier();
            if pe.rank() == 0 {
                super::int::put(pe, buf.whole(), &[-1, -2, -3, -4], 4, 1, 1);
            }
            pe.barrier();
            let mut out = [0i32; 4];
            if pe.rank() == 1 {
                super::int::get(pe, &mut out, buf.whole(), 4, 1, 1);
            }
            pe.barrier();
            out
        });
        assert_eq!(report.results[1], [-1, -2, -3, -4]);
    }

    #[test]
    fn typed_broadcast_and_reduce() {
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let b = pe.shared_malloc::<f64>(2);
            super::double::broadcast(pe, &b, &[2.5, -2.5], 2, 1, 3);
            pe.barrier();

            let s = pe.shared_malloc::<u64>(1);
            pe.heap_store(s.whole(), pe.rank() as u64 + 1);
            pe.barrier();
            let mut red = [0u64];
            super::ulong::reduce_prod(pe, &mut red, &s, 1, 1, 0);
            pe.barrier();
            (pe.heap_read_vec(b.whole(), 2), red[0])
        });
        for (bcast, _) in &report.results {
            assert_eq!(bcast, &vec![2.5, -2.5]);
        }
        assert_eq!(report.results[0].1, 24); // 1*2*3*4
    }

    #[test]
    fn typed_bitwise_reductions() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let s = pe.shared_malloc::<u8>(1);
            pe.heap_store(s.whole(), 1u8 << pe.rank());
            pe.barrier();
            let mut d = [0u8];
            super::uint8::reduce_or(pe, &mut d, &s, 1, 1, 0);
            pe.barrier();
            d[0]
        });
        assert_eq!(report.results[0], 0b111);
    }

    #[test]
    fn typed_scatter_gather() {
        let report = Fabric::run(FabricConfig::new(3), |pe| {
            let msgs = [1usize, 2, 1];
            let disp = [0usize, 1, 3];
            let src: Vec<i16> = if pe.rank() == 0 {
                vec![10, 20, 21, 30]
            } else {
                vec![]
            };
            let mut mine = vec![0i16; 2];
            super::short::scatter(pe, &mut mine, &src, &msgs, &disp, 4, 0);
            pe.barrier();
            let mut back = vec![0i16; 4];
            super::short::gather(pe, &mut back, &mine[..msgs[pe.rank()]], &msgs, &disp, 4, 0);
            pe.barrier();
            back
        });
        assert_eq!(report.results[0], vec![10, 20, 21, 30]);
    }

    #[test]
    fn typed_policy_sync_variants_match_defaults() {
        use crate::collectives::{AlgorithmPolicy, SyncMode};
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let mut out = Vec::new();
            for (policy, sync) in [
                (AlgorithmPolicy::Binomial, SyncMode::Barrier),
                (AlgorithmPolicy::Linear, SyncMode::Barrier),
                (AlgorithmPolicy::Auto, SyncMode::Barrier),
                (AlgorithmPolicy::Binomial, SyncMode::Signaled),
                (AlgorithmPolicy::Binomial, SyncMode::Auto),
            ] {
                let b = pe.shared_malloc::<u32>(2);
                super::uint::broadcast_policy_sync(pe, &b, &[4, 5], 2, 1, 1, policy, sync);
                pe.barrier();

                let s = pe.shared_malloc::<i32>(1);
                pe.heap_store(s.whole(), pe.rank() as i32 + 1);
                pe.barrier();
                let mut red = [0i32];
                super::int::reduce_policy_sync(
                    pe,
                    &mut red,
                    &s,
                    1,
                    1,
                    0,
                    crate::types::ReduceOp::Sum,
                    policy,
                    sync,
                );
                pe.barrier();
                out.push((pe.heap_read_vec::<u32>(b.whole(), 2), red[0]));
            }
            out
        });
        for (rank, per_call) in report.results.iter().enumerate() {
            for (bcast, sum) in per_call {
                assert_eq!(bcast, &vec![4, 5]);
                if rank == 0 {
                    assert_eq!(*sum, 10);
                }
            }
        }
    }

    #[test]
    fn typed_nonblocking() {
        let report = Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<usize>(8);
            pe.barrier();
            if pe.rank() == 0 {
                let data: Vec<usize> = (0..8).collect();
                let h = super::size::put_nb(pe, buf.whole(), &data, 8, 1, 1);
                pe.wait(h);
            }
            pe.barrier();
            pe.heap_read_vec(buf.whole(), 8)
        });
        assert_eq!(report.results[1], (0..8).collect::<Vec<usize>>());
    }
}

#[cfg(test)]
mod completeness {
    use crate::fabric::{Fabric, FabricConfig};
    use crate::types::TABLE1;

    /// Exercise put/get and a reduction for every one of the 24 Table 1
    /// modules, proving the full explicit API surface exists and works.
    macro_rules! roundtrip_all {
        ($( $module:ident ),* $(,)?) => {{
            let mut exercised: Vec<&'static str> = Vec::new();
            $(
                {
                    type E = super::$module::Elem;
                    let report = Fabric::run(FabricConfig::new(2), |pe| {
                        let buf = pe.shared_malloc::<E>(2);
                        pe.barrier();
                        if pe.rank() == 0 {
                            let v: E = Default::default();
                            super::$module::put(pe, buf.whole(), &[v, v], 2, 1, 1);
                        }
                        pe.barrier();
                        let mut out = [E::default(); 2];
                        super::$module::get(pe, &mut out, buf.whole(), 2, 1, 1);

                        let src = pe.shared_malloc::<E>(1);
                        pe.heap_store(src.whole(), E::default());
                        pe.barrier();
                        let mut red = [E::default(); 1];
                        super::$module::reduce_max(pe, &mut red, &src, 1, 1, 0);
                        pe.barrier();
                        out[0] == E::default() && red[0] == E::default()
                    });
                    assert!(report.results.iter().all(|&ok| ok), stringify!($module));
                    exercised.push(stringify!($module));
                }
            )*
            exercised
        }};
    }

    #[test]
    fn all_24_type_modules_exist_and_roundtrip() {
        let exercised = roundtrip_all!(
            float, double, longdouble, char, uchar, schar, ushort, short, uint, int, ulong, long,
            ulonglong, longlong, uint8, int8, uint16, int16, uint32, int32, uint64, int64, size,
            ptrdiff,
        );
        assert_eq!(exercised.len(), TABLE1.len());
        // Every Table 1 name has a module of the same name exercised above.
        for entry in TABLE1 {
            assert!(
                exercised.contains(&entry.type_name),
                "no typed module exercised for `{}`",
                entry.type_name
            );
        }
    }
}
